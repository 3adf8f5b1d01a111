package bolt

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
)

// Options configures the serving contract: deadlines, admission control,
// and drain behaviour. The zero value serves like the original server —
// no timeouts, unbounded concurrency, immediate close.
type Options struct {
	// QueryTimeout is the per-query deadline applied when the client does
	// not request one in the RUN frame. Zero means no default deadline.
	QueryTimeout time.Duration
	// MaxQueryTimeout caps client-requested deadlines so a client cannot
	// opt out of the server's protection by sending a huge value. Zero
	// means client requests are taken as-is.
	MaxQueryTimeout time.Duration
	// MaxConcurrent bounds the number of queries executing at once; excess
	// RUNs are shed immediately with a retryable FailOverloaded FAILURE
	// rather than queued (queueing under overload only moves the wait from
	// the client into the server). Zero or negative means unbounded.
	MaxConcurrent int
	// DrainTimeout is how long Close waits for in-flight queries to finish
	// before cancelling them. Zero means cancel immediately.
	DrainTimeout time.Duration
	// IdleTimeout closes a connection that sends no frame for this long.
	// Zero means connections may idle forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response flush, so one stalled client
	// cannot pin a serving goroutine. Zero means no write deadline.
	WriteTimeout time.Duration
	// ReadGate, when set, screens every parsed statement before execution.
	// Replica servers use it to reject writes (FailReadOnly) and reads above
	// the replicated watermark (FailReplicaLag). A *ServerError return is
	// sent to the client with its code; any other error maps to FailGeneric.
	ReadGate func(st *cypher.Statement, params map[string]model.Value) error
	// ReplicationHandler, when set, takes over a connection whose client
	// sends MsgReplicate after the handshake: the serve loop clears its
	// deadlines and hands the connection (with its buffered reader/writer
	// and the request frame) to the handler, which owns it until it returns.
	// Primaries install the log-shipping source here.
	ReplicationHandler func(conn net.Conn, r *bufio.Reader, w *bufio.Writer, req []byte)
	// Replication, when set, contributes replication counters to Metrics.
	Replication Replicator
	// Admin, when set, exposes the failover control surface: MsgPromote
	// and MsgStatus frames are answered through it, and epochs carried in
	// HELLO frames are folded into the node (fencing a stale primary).
	Admin Admin
}

// Admin is the failover control surface a node installs on its Bolt
// listener. internal/replica.Node implements it.
type Admin interface {
	// PromoteNode advances the fencing epoch and makes this node the
	// primary; it returns the new epoch.
	PromoteNode() (epoch uint64, err error)
	// NodeStatus reports the node's role, epoch, and serving watermark.
	NodeStatus() NodeStatus
	// ObserveEpoch folds an epoch seen on the wire into the node (demoting
	// a primary that learns of a higher reign) and returns the node's
	// epoch after observation.
	ObserveEpoch(epoch uint64) uint64
}

// NodeStatus is a node's failover-relevant state, served via MsgStatus.
type NodeStatus struct {
	// Role is the node's hostdb role: "primary", "replica", or "fenced".
	Role string
	// Epoch is the highest fencing epoch the node has durably observed.
	Epoch uint64
	// Watermark is the highest commit timestamp the node can serve.
	Watermark int64
}

// ReplicationMetrics is a snapshot of a node's replication counters. On a
// primary the Shipped/heartbeat counters move; on a follower the Applied,
// Reconnects, and watermark fields do.
type ReplicationMetrics struct {
	// FramesShipped / BytesShipped count transaction-log records (and their
	// payload bytes) sent to followers.
	FramesShipped uint64
	BytesShipped  uint64
	// FramesApplied / BytesApplied count records verified and applied on a
	// follower.
	FramesApplied uint64
	BytesApplied  uint64
	// Heartbeats counts keepalive frames sent (primary) or received
	// (follower).
	Heartbeats uint64
	// Reconnects counts follower stream re-establishments after a dial
	// failure or mid-stream disconnect.
	Reconnects uint64
	// Watermark is the follower's replicated-watermark timestamp: the
	// highest commit it can serve.
	Watermark int64
	// WatermarkLag is the primary clock minus the watermark as of the last
	// heartbeat — how far behind this follower is, in commit timestamps.
	WatermarkLag int64
	// Epoch is the node's fencing epoch.
	Epoch uint64
	// FencedStreams counts replication streams refused or terminated
	// because this node is not (or no longer) the primary.
	FencedStreams uint64
}

// Replicator exposes replication counters for the metrics surface; both the
// primary-side source and the follower-side applier implement it.
type Replicator interface {
	ReplicationStats() ReplicationMetrics
}

// Metrics is a snapshot of the server's admission counters.
type Metrics struct {
	// Queries is the number of RUN statements admitted for execution.
	Queries uint64
	// Shed counts RUNs rejected by the concurrency limit (FailOverloaded).
	Shed uint64
	// Timeouts counts queries that exceeded their deadline (FailTimeout).
	Timeouts uint64
	// Panics counts queries that crashed and were contained (FailPanic).
	Panics uint64
	// Rejected counts statements refused by the read gate (replica writes
	// and above-watermark reads).
	Rejected uint64
	// Promotions counts successful MsgPromote commands served.
	Promotions uint64
	// Replication holds the node's replication counters when replication is
	// configured, nil otherwise.
	Replication *ReplicationMetrics
}

// Server serves temporal Cypher over the Bolt-like protocol. Each
// connection gets its own goroutine (the worker threads dedicated to query
// compilation, transaction management, and networking of Sec 6.7).
//
// Serving contract: every admitted query runs under a context that is
// cancelled on deadline expiry and on server drain; a panic inside the
// engine is contained to the query that caused it; overload is shed with a
// retryable FAILURE instead of queueing; Close drains in-flight queries up
// to DrainTimeout before cancelling them.
type Server struct {
	engine *cypher.Engine
	opts   Options

	// baseCtx parents every query context; cancelled when drain gives up.
	baseCtx context.Context
	cancel  context.CancelFunc

	listener net.Listener
	wg       sync.WaitGroup

	// sem is the admission semaphore (nil when unbounded). Acquisition is
	// non-blocking: a full semaphore sheds the query.
	sem chan struct{}

	mu       sync.Mutex
	conns    map[net.Conn]bool
	closed   bool
	draining bool
	// active counts connections with an unfinished statement cycle (RUN
	// admitted through PULL summary flushed). Once draining is set no
	// connection can become active, so active only falls; the transition
	// to zero closes drainedCh.
	active    int
	drainedCh chan struct{}

	queries    atomic.Uint64
	shed       atomic.Uint64
	timeouts   atomic.Uint64
	panics     atomic.Uint64
	rejected   atomic.Uint64
	promotions atomic.Uint64
}

// NewServer creates a server over a Cypher engine. Options are variadic so
// existing callers keep working; at most one Options value is used.
func NewServer(engine *cypher.Engine, opts ...Options) *Server {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		engine:    engine,
		opts:      o,
		baseCtx:   ctx,
		cancel:    cancel,
		conns:     map[net.Conn]bool{},
		drainedCh: make(chan struct{}),
	}
	if o.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, o.MaxConcurrent)
	}
	return s
}

// Metrics returns a snapshot of the admission counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Queries:    s.queries.Load(),
		Shed:       s.shed.Load(),
		Timeouts:   s.timeouts.Load(),
		Panics:     s.panics.Load(),
		Rejected:   s.rejected.Load(),
		Promotions: s.promotions.Load(),
	}
	if s.opts.Replication != nil {
		rm := s.opts.Replication.ReplicationStats()
		m.Replication = &rm
	}
	return m
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(l), nil
}

// Serve starts accepting connections on an existing listener and returns
// its bound address. The fault-injection harness uses this to serve
// through a netfault-wrapped listener; Listen is Serve over a plain TCP
// one.
func (s *Server) Serve(l net.Listener) string {
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return l.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// Close drains and stops the server: stop accepting, let in-flight
// statements finish for up to DrainTimeout, then cancel whatever remains
// and terminate the connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	idle := s.active == 0
	s.mu.Unlock()

	// Stop accepting. In-flight serve loops keep running; new RUNs are
	// rejected with FailShuttingDown because draining is set.
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}

	if !idle && s.opts.DrainTimeout > 0 {
		t := time.NewTimer(s.opts.DrainTimeout)
		select {
		case <-s.drainedCh:
		case <-t.C:
		}
		t.Stop()
	}

	// Cancel queries that outlived the drain window, then drop the
	// connections.
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// enterStatement marks a connection busy for drain accounting; it fails
// when the server is draining.
func (s *Server) enterStatement() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// exitStatement ends a statement cycle; the last one out during a drain
// signals Close.
func (s *Server) exitStatement() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && s.draining {
		select {
		case <-s.drainedCh:
		default:
			close(s.drainedCh)
		}
	}
	s.mu.Unlock()
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// queryContext derives the context one query runs under: the server base
// context (cancelled at the end of drain) plus the effective deadline.
// A client-requested timeout wins but is capped by MaxQueryTimeout;
// otherwise the server default applies.
func (s *Server) queryContext(reqTimeout time.Duration) (context.Context, context.CancelFunc) {
	timeout := s.opts.QueryTimeout
	if reqTimeout > 0 {
		timeout = reqTimeout
		if s.opts.MaxQueryTimeout > 0 && timeout > s.opts.MaxQueryTimeout {
			timeout = s.opts.MaxQueryTimeout
		}
	}
	if timeout <= 0 {
		return context.WithCancel(s.baseCtx)
	}
	return context.WithTimeout(s.baseCtx, timeout)
}

// runQuery executes one statement with panic containment: a crash inside
// the engine is converted to a FailPanic ServerError instead of unwinding
// the connection goroutine (and with it the server). The statement is
// parsed here (not in the engine) so the read gate can screen the AST
// before any execution work happens.
func (s *Server) runQuery(ctx context.Context, query string, params map[string]model.Value) (res *cypher.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			res = nil
			err = &ServerError{Code: FailPanic, Msg: fmt.Sprintf("query panicked: %v", p)}
		}
	}()
	st, err := cypher.Parse(query)
	if err != nil {
		return nil, err
	}
	if s.opts.ReadGate != nil {
		if gerr := s.opts.ReadGate(st, params); gerr != nil {
			s.rejected.Add(1)
			return nil, gerr
		}
	}
	return s.engine.ExecContext(ctx, st, params)
}

// rowFlushStride is how many RECORD frames are buffered between flushes
// when streaming a PULL response: large enough to amortize syscalls, small
// enough that the client sees rows while the server is still producing.
const rowFlushStride = 256

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	// A panic outside the per-query recovery (protocol handling itself)
	// must not take down the whole server; contain it to this connection.
	defer func() { recover() }()

	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)

	send := func(payload []byte) error {
		return WriteFrame(w, payload)
	}
	flush := func() error {
		if s.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		return w.Flush()
	}
	read := func() ([]byte, error) {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		return ReadFrame(r)
	}
	fail := func(code byte, msg string) error {
		if err := send(appendFailure(code, msg)); err != nil {
			return err
		}
		return flush()
	}

	// Handshake: expect HELLO, reply SUCCESS. A HELLO may carry the
	// sender's fencing epoch after the agent string (8 bytes BE); folding
	// it into the node is how a partitioned ex-primary learns it was
	// deposed the moment ANY peer from the new reign talks to it. The
	// reply carries this node's epoch back when the admin surface is
	// enabled.
	frame, err := read()
	if err != nil || len(frame) == 0 || frame[0] != MsgHello {
		return
	}
	if s.opts.Admin != nil {
		if _, rest, herr := readString(frame[1:]); herr == nil && len(rest) >= 8 {
			s.opts.Admin.ObserveEpoch(binary.BigEndian.Uint64(rest))
		}
	}
	success := []byte{MsgSuccess}
	if s.opts.Admin != nil {
		success = binary.BigEndian.AppendUint64(success, s.opts.Admin.ObserveEpoch(0))
	}
	if err := send(success); err != nil {
		return
	}
	if err := flush(); err != nil {
		return
	}

	var pending *cypher.Result
	// busy tracks whether this connection holds a statement slot (RUN
	// admitted, summary not yet delivered) for drain accounting.
	busy := false
	finishStatement := func() {
		if busy {
			busy = false
			s.exitStatement()
		}
	}
	defer finishStatement()

	for {
		frame, err := read()
		if err != nil || len(frame) == 0 {
			return
		}
		switch frame[0] {
		case MsgGoodbye:
			return
		case MsgReplicate:
			if s.opts.ReplicationHandler == nil {
				if fail(FailGeneric, "bolt: replication not enabled") != nil {
					return
				}
				continue
			}
			// The connection becomes a long-lived push stream owned by the
			// replication source; idle deadlines no longer apply.
			conn.SetReadDeadline(time.Time{})
			conn.SetWriteDeadline(time.Time{})
			s.opts.ReplicationHandler(conn, r, w, frame)
			return
		case MsgPromote:
			if s.opts.Admin == nil {
				if fail(FailGeneric, "bolt: admin surface not enabled") != nil {
					return
				}
				continue
			}
			epoch, perr := s.opts.Admin.PromoteNode()
			if perr != nil {
				code := FailGeneric
				var se *ServerError
				if errors.As(perr, &se) {
					code = se.Code
				}
				if fail(code, perr.Error()) != nil {
					return
				}
				continue
			}
			s.promotions.Add(1)
			payload := binary.BigEndian.AppendUint64([]byte{MsgSuccess}, epoch)
			if send(payload) != nil || flush() != nil {
				return
			}
		case MsgStatus:
			if s.opts.Admin == nil {
				if fail(FailGeneric, "bolt: admin surface not enabled") != nil {
					return
				}
				continue
			}
			// STATUS doubles as epoch gossip: a prober that has seen a
			// higher epoch (a router that followed a failover) delivers it
			// here, which is how a partitioned-then-healed ex-primary
			// learns it was deposed and fences itself.
			if len(frame) >= 9 {
				s.opts.Admin.ObserveEpoch(binary.BigEndian.Uint64(frame[1:9]))
			}
			st := s.opts.Admin.NodeStatus()
			payload := binary.BigEndian.AppendUint64([]byte{MsgSuccess}, st.Epoch)
			payload = appendString(payload, st.Role)
			payload = binary.AppendVarint(payload, st.Watermark)
			if send(payload) != nil || flush() != nil {
				return
			}
		case MsgRun:
			// A RUN while a result is pending replaces it; the previous
			// statement cycle is over.
			pending = nil
			finishStatement()
			query, params, reqTimeout, derr := decodeRun(frame[1:])
			if derr != nil {
				if fail(FailGeneric, derr.Error()) != nil {
					return
				}
				continue
			}
			// Admission: reject during drain, shed at the concurrency cap.
			if !s.enterStatement() {
				if fail(FailShuttingDown, "server is shutting down") != nil {
					return
				}
				continue
			}
			busy = true
			if s.sem != nil {
				select {
				case s.sem <- struct{}{}:
				default:
					finishStatement()
					s.shed.Add(1)
					if fail(FailOverloaded, "too many concurrent queries") != nil {
						return
					}
					continue
				}
			}
			s.queries.Add(1)
			ctx, cancel := s.queryContext(reqTimeout)
			res, qerr := s.runQuery(ctx, query, params)
			cancel()
			if s.sem != nil {
				<-s.sem
			}
			if qerr != nil {
				finishStatement()
				code := FailGeneric
				var se *ServerError
				switch {
				case errors.As(qerr, &se):
					code = se.Code
				case errors.Is(qerr, hostdb.ErrFenced):
					// A commit reached a demoted ex-primary: the client must
					// re-resolve the primary, not retry here.
					code = FailFenced
				case errors.Is(qerr, hostdb.ErrReplicaReadOnly):
					code = FailReadOnly
				case errors.Is(qerr, context.DeadlineExceeded):
					s.timeouts.Add(1)
					code = FailTimeout
				case errors.Is(qerr, context.Canceled) && s.isDraining():
					code = FailShuttingDown
				}
				if fail(code, qerr.Error()) != nil {
					return
				}
				continue
			}
			pending = res
			// SUCCESS carries the column names.
			payload := []byte{MsgSuccess}
			payload = binary.AppendUvarint(payload, uint64(len(res.Columns)))
			for _, c := range res.Columns {
				payload = appendString(payload, c)
			}
			if send(payload) != nil {
				return
			}
			if flush() != nil {
				return
			}
		case MsgPull:
			if pending == nil {
				if fail(FailGeneric, "bolt: PULL with no pending result") != nil {
					return
				}
				continue
			}
			// Stream records with periodic flushes so large results reach
			// the client incrementally instead of accumulating in the
			// write buffer.
			for i, row := range pending.Rows {
				payload := []byte{MsgRecord}
				payload = binary.AppendUvarint(payload, uint64(len(row)))
				for _, v := range row {
					payload = appendVal(payload, v)
				}
				if send(payload) != nil {
					return
				}
				if (i+1)%rowFlushStride == 0 {
					if flush() != nil {
						return
					}
				}
			}
			// Summary SUCCESS with write counters.
			payload := []byte{MsgSuccess}
			payload = binary.AppendUvarint(payload, 0) // no columns
			for _, c := range []int{pending.NodesCreated, pending.RelsCreated,
				pending.PropsSet, pending.NodesDeleted, pending.RelsDeleted} {
				payload = binary.AppendVarint(payload, int64(c))
			}
			payload = binary.AppendVarint(payload, int64(pending.CommitTS))
			pending = nil
			if send(payload) != nil {
				return
			}
			if flush() != nil {
				return
			}
			finishStatement()
		default:
			if fail(FailGeneric, fmt.Sprintf("bolt: unexpected message 0x%x", frame[0])) != nil {
				return
			}
		}
	}
}

// decodeRun parses a RUN frame body: query, parameters, and an optional
// trailing uvarint timeout in milliseconds. The timeout field is absent in
// frames from older clients, which is treated as "no request" rather than
// an error.
func decodeRun(b []byte) (string, map[string]model.Value, time.Duration, error) {
	query, b, err := readString(b)
	if err != nil {
		return "", nil, 0, err
	}
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return "", nil, 0, fmt.Errorf("bolt: bad param count")
	}
	b = b[w:]
	var params map[string]model.Value
	for i := uint64(0); i < n; i++ {
		var k string
		var v model.Value
		k, b, err = readString(b)
		if err != nil {
			return "", nil, 0, err
		}
		v, b, err = readScalar(b)
		if err != nil {
			return "", nil, 0, err
		}
		if params == nil {
			params = map[string]model.Value{}
		}
		params[k] = v
	}
	var timeout time.Duration
	if len(b) > 0 {
		millis, w := binary.Uvarint(b)
		if w <= 0 {
			return "", nil, 0, fmt.Errorf("bolt: bad timeout field")
		}
		timeout = time.Duration(millis) * time.Millisecond
	}
	return query, params, timeout, nil
}
