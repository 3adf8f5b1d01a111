package bolt

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"

	"aion/internal/clock"
	"aion/internal/cypher"
	"aion/internal/model"
)

// Client is a Bolt session. It is not safe for concurrent use; open one
// client per worker (as the paper pins one client thread per core).
type Client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// dial re-establishes the transport on RunRetry redials; set by
	// DialVia, nil means net.Dial("tcp", addr).
	dial func(addr string) (net.Conn, error)
	// epoch is the server's fencing epoch as of the HELLO reply (zero when
	// the server has no admin surface).
	epoch uint64
	// OpTimeout bounds the handshake and admin (Promote/Status) reads, and
	// pads the reply deadline of RunTimeout. Without it a silently dead
	// connection — a network partition blackholing the route — would block
	// a reply read forever. Zero means the 2s default.
	OpTimeout time.Duration
}

func (c *Client) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return 2 * time.Second
}

// recvDeadline reads one frame under a read deadline of d, clearing the
// deadline afterwards so later frames on the session are unaffected.
func (c *Client) recvDeadline(d time.Duration) ([]byte, error) {
	if c.conn != nil {
		c.conn.SetReadDeadline(time.Now().Add(d))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	return c.recv()
}

// ServerEpoch returns the fencing epoch the server reported in the HELLO
// handshake (or the last Status call), zero if it reported none.
func (c *Client) ServerEpoch() uint64 { return c.epoch }

// NoteEpoch raises the epoch this client gossips on its next Status call.
// Routers call it with the highest epoch seen across the cluster before
// probing, so a deposed primary hears about the reign that replaced it.
func (c *Client) NoteEpoch(epoch uint64) {
	if epoch > c.epoch {
		c.epoch = epoch
	}
}

// Summary carries the write counters of a completed query.
type Summary struct {
	NodesCreated, RelsCreated, PropsSet, NodesDeleted, RelsDeleted int
	CommitTS                                                       model.Timestamp
}

// RetryPolicy controls RunRetry: full-jitter exponential backoff applied
// only to failures the server marked retryable (overload, shutdown).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 1 behave as 1.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k sleeps a uniform
	// random duration in [0, min(MaxDelay, BaseDelay·2^k)] (full jitter,
	// so synchronized clients don't retry in lockstep).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling. Zero means no cap.
	MaxDelay time.Duration
	// Clock supplies the backoff sleeps; nil means the wall clock. Fault
	// sweeps install clock.Fake so thousands of retry cycles run without
	// wall-clock waits.
	Clock clock.Clock
}

// sleepBackoff sleeps the full-jitter delay before retry number attempt
// (0-based) on the policy's clock.
func (p RetryPolicy) sleepBackoff(attempt int) {
	_ = clock.OrReal(p.Clock).Sleep(context.Background(), p.Backoff(attempt))
}

// DefaultRetryPolicy suits a briefly overloaded server: up to 5 attempts
// over roughly a second.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
}

// Backoff returns the sleep before retry number attempt (0-based): a
// uniform random duration in [0, min(MaxDelay, BaseDelay·2^attempt)].
// Exported so the replication follower can reuse the same full-jitter
// schedule for its reconnect loop.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || (p.MaxDelay > 0 && d > p.MaxDelay) {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// TransportRetryable reports whether err is a transport-level failure worth
// retrying against a fresh connection: a refused or reset connection, a
// broken pipe, an abrupt EOF mid-frame, or a network timeout. Typed server
// FAILUREs are excluded — their own Retryable() governs them — as are
// protocol and decode errors, which would just fail again.
func TransportRetryable(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Dial connects and performs the HELLO handshake.
func Dial(addr string) (*Client, error) {
	return DialVia(addr, nil)
}

// DialVia is Dial through a custom transport dialer (nil means plain TCP).
// Fault sweeps inject a netfault.Network Dialer here so every reconnect the
// client makes flows through the same fault schedule.
func DialVia(addr string, dial func(addr string) (net.Conn, error)) (*Client, error) {
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, conn: conn, r: bufio.NewReaderSize(conn, 1<<16), w: bufio.NewWriterSize(conn, 1<<16), dial: dial}
	hello := []byte{MsgHello}
	hello = appendString(hello, "aion-go/1.0")
	if err := c.send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	frame, err := c.recvDeadline(c.opTimeout())
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(frame) == 0 || frame[0] != MsgSuccess {
		conn.Close()
		return nil, fmt.Errorf("bolt: handshake rejected")
	}
	// Servers with an admin surface append their fencing epoch to the
	// handshake SUCCESS; older/plain servers send a bare frame.
	if len(frame) >= 9 {
		c.epoch = binary.BigEndian.Uint64(frame[1:9])
	}
	return c, nil
}

// redial re-establishes the transport after a mid-stream failure, reusing
// the dialer this client was created with.
func (c *Client) redial() error {
	nc, err := DialVia(c.addr, c.dial)
	if err != nil {
		return err
	}
	c.conn, c.r, c.w, c.epoch = nc.conn, nc.r, nc.w, nc.epoch
	return nil
}

// Promote asks the server to take over as primary: it advances the fencing
// epoch, persists it, and flips the node writable. Returns the new epoch.
// The caller is responsible for making sure the old primary is dead or
// partitioned — the epoch fence is what keeps a zombie from splitting the
// brain afterwards.
func (c *Client) Promote() (uint64, error) {
	if err := c.send([]byte{MsgPromote}); err != nil {
		return 0, err
	}
	frame, err := c.recvDeadline(c.opTimeout())
	if err != nil {
		return 0, err
	}
	if len(frame) > 0 && frame[0] == MsgFailure {
		return 0, decodeFailure(frame[1:])
	}
	if len(frame) < 9 || frame[0] != MsgSuccess {
		return 0, fmt.Errorf("bolt: bad promote reply")
	}
	c.epoch = binary.BigEndian.Uint64(frame[1:9])
	return c.epoch, nil
}

// Status fetches the server's role, fencing epoch, and replication
// watermark. Routers use it to re-resolve the primary after a failover.
// The request carries the highest epoch this client has seen, so a status
// probe also gossips the epoch forward — probing a deposed primary that
// missed the failover is what fences it.
func (c *Client) Status() (NodeStatus, error) {
	req := binary.BigEndian.AppendUint64([]byte{MsgStatus}, c.epoch)
	if err := c.send(req); err != nil {
		return NodeStatus{}, err
	}
	frame, err := c.recvDeadline(c.opTimeout())
	if err != nil {
		return NodeStatus{}, err
	}
	if len(frame) > 0 && frame[0] == MsgFailure {
		return NodeStatus{}, decodeFailure(frame[1:])
	}
	if len(frame) < 9 || frame[0] != MsgSuccess {
		return NodeStatus{}, fmt.Errorf("bolt: bad status reply")
	}
	st := NodeStatus{Epoch: binary.BigEndian.Uint64(frame[1:9])}
	role, rest, err := readString(frame[9:])
	if err != nil {
		return NodeStatus{}, err
	}
	st.Role = role
	wm, w := binary.Varint(rest)
	if w <= 0 {
		return NodeStatus{}, fmt.Errorf("bolt: bad status watermark")
	}
	st.Watermark = wm
	c.epoch = st.Epoch
	return st, nil
}

func (c *Client) send(payload []byte) error {
	if c.conn == nil {
		return net.ErrClosed
	}
	if err := WriteFrame(c.w, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Client) recv() ([]byte, error) { return ReadFrame(c.r) }

// Run executes a query and pulls all records, with no client-side deadline
// (the server's default query timeout still applies).
func (c *Client) Run(query string, params map[string]model.Value) ([]string, [][]cypher.Val, *Summary, error) {
	return c.RunTimeout(query, params, 0)
}

// RunTimeout executes a query with a per-query deadline request encoded in
// the RUN frame. The server enforces it (capped by its own maximum) and
// answers with a FailTimeout FAILURE when the query exceeds it. A zero
// timeout requests the server default.
func (c *Client) RunTimeout(query string, params map[string]model.Value, timeout time.Duration) ([]string, [][]cypher.Val, *Summary, error) {
	if timeout > 0 && c.conn != nil {
		// Bound the whole statement's reads client-side: the server enforces
		// the query deadline, but only a local deadline saves us from a
		// connection the network silently blackholed.
		c.conn.SetReadDeadline(time.Now().Add(timeout + c.opTimeout()))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	msg := []byte{MsgRun}
	msg = appendString(msg, query)
	msg = binary.AppendUvarint(msg, uint64(len(params)))
	for k, v := range params {
		msg = appendString(msg, k)
		msg = appendScalar(msg, v)
	}
	msg = binary.AppendUvarint(msg, uint64(timeout/time.Millisecond))
	if err := c.send(msg); err != nil {
		return nil, nil, nil, err
	}
	frame, err := c.recv()
	if err != nil {
		return nil, nil, nil, err
	}
	if len(frame) == 0 {
		return nil, nil, nil, fmt.Errorf("bolt: empty reply")
	}
	if frame[0] == MsgFailure {
		return nil, nil, nil, decodeFailure(frame[1:])
	}
	if frame[0] != MsgSuccess {
		return nil, nil, nil, fmt.Errorf("bolt: unexpected reply 0x%x", frame[0])
	}
	// Columns.
	b := frame[1:]
	nc, w := binary.Uvarint(b)
	if w <= 0 || nc > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("bolt: bad column count")
	}
	b = b[w:]
	columns := make([]string, nc)
	for i := range columns {
		columns[i], b, err = readString(b)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// PULL and stream records.
	if err := c.send([]byte{MsgPull}); err != nil {
		return nil, nil, nil, err
	}
	var rows [][]cypher.Val
	for {
		frame, err := c.recv()
		if err != nil {
			return nil, nil, nil, err
		}
		if len(frame) == 0 {
			return nil, nil, nil, fmt.Errorf("bolt: empty frame")
		}
		switch frame[0] {
		case MsgRecord:
			b := frame[1:]
			n, w := binary.Uvarint(b)
			if w <= 0 || n > uint64(len(b)) {
				return nil, nil, nil, fmt.Errorf("bolt: bad record arity")
			}
			b = b[w:]
			row := make([]cypher.Val, n)
			for i := range row {
				row[i], b, err = readVal(b)
				if err != nil {
					return nil, nil, nil, err
				}
			}
			rows = append(rows, row)
		case MsgSuccess:
			sum, err := decodeSummary(frame[1:])
			if err != nil {
				return nil, nil, nil, err
			}
			return columns, rows, sum, nil
		case MsgFailure:
			return nil, nil, nil, decodeFailure(frame[1:])
		default:
			return nil, nil, nil, fmt.Errorf("bolt: unexpected frame 0x%x", frame[0])
		}
	}
}

// RunRetry is RunTimeout plus automatic retries on failures the server
// marked retryable (overload shed, shutdown, replica lag) and on transport
// failures (refused/reset connections, mid-stream disconnects), the latter
// against a freshly dialed connection. Terminal failures — syntax errors,
// timeouts, panics — are returned immediately; a server FAILURE leaves the
// connection usable, so those retries reuse it.
//
// Caveat: a transport failure after the server received a write leaves the
// write's fate unknown; retrying makes delivery at-least-once. Idempotent
// statements (reads, MATCH-guarded writes) are safe; blind CREATEs may be
// duplicated.
func (c *Client) RunRetry(policy RetryPolicy, query string, params map[string]model.Value, timeout time.Duration) ([]string, [][]cypher.Val, *Summary, error) {
	attempts := policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			policy.sleepBackoff(attempt - 1)
		}
		if c.conn == nil {
			// Previous attempt lost the connection; redial before retrying.
			if err := c.redial(); err != nil {
				lastErr = err
				if !TransportRetryable(err) {
					return nil, nil, nil, err
				}
				continue
			}
		}
		cols, rows, sum, err := c.RunTimeout(query, params, timeout)
		if err == nil {
			return cols, rows, sum, nil
		}
		lastErr = err
		var se *ServerError
		switch {
		case errors.As(err, &se):
			if !se.Retryable() {
				return nil, nil, nil, err
			}
		case TransportRetryable(err) && c.addr != "":
			// The connection is in an unknown protocol state; drop it and
			// redial on the next attempt.
			c.conn.Close()
			c.conn = nil
		default:
			return nil, nil, nil, err
		}
	}
	return nil, nil, nil, lastErr
}

// DialRetry is Dial with the policy's full-jitter backoff applied to
// transport-level dial failures, for connecting to servers that may still
// be starting up or briefly unreachable.
func DialRetry(addr string, policy RetryPolicy) (*Client, error) {
	return DialRetryVia(addr, policy, nil)
}

// DialRetryVia is DialRetry through a custom transport dialer.
func DialRetryVia(addr string, policy RetryPolicy, dial func(addr string) (net.Conn, error)) (*Client, error) {
	attempts := policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			policy.sleepBackoff(attempt - 1)
		}
		c, err := DialVia(addr, dial)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !TransportRetryable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

func decodeSummary(b []byte) (*Summary, error) {
	// Skip the (empty) column list.
	_, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("bolt: bad summary")
	}
	b = b[w:]
	var vals [6]int64
	for i := range vals {
		x, w := binary.Varint(b)
		if w <= 0 {
			return nil, fmt.Errorf("bolt: short summary")
		}
		vals[i] = x
		b = b[w:]
	}
	return &Summary{
		NodesCreated: int(vals[0]), RelsCreated: int(vals[1]), PropsSet: int(vals[2]),
		NodesDeleted: int(vals[3]), RelsDeleted: int(vals[4]),
		CommitTS: model.Timestamp(vals[5]),
	}, nil
}

// Close sends GOODBYE and closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	c.send([]byte{MsgGoodbye})
	return c.conn.Close()
}
