package main

import (
	"fmt"
	"sync"
	"time"

	"aion/internal/bolt"
	"aion/internal/cypher"
)

// conn is one closed-loop client: it sends its next statement only after
// the previous reply arrived.
type conn struct {
	idx    int
	cl     *bolt.Client
	stream []stmt
	next   int // position in stream; also the write-value sequence number
}

// phase describes one measured (or warm-up) pass over the connections.
type phase struct {
	dur time.Duration
	// reads restricts the pass to read statements (warm-up must not
	// write: the visibility check covers measured writes only).
	readsOnly bool
	// keep selects the outcomes the answer check examines; nil keeps none.
	keep func(s stmt) bool
	// lad, when set, sends every traceEvery-th read statement down the
	// in-process ladder as well.
	lad        *ladder
	traceEvery int
}

// run drives every connection for p.dur and returns one log per
// connection. Each connection runs in its own goroutine, and run waits for
// all of them.
func (p phase) run(conns []*conn) []*connLog {
	logs := make([]*connLog, len(conns))
	start := time.Now()
	deadline := start.Add(p.dur)
	var wg sync.WaitGroup
	for i, c := range conns {
		logs[i] = &connLog{}
		wg.Add(1)
		go func(c *conn, lg *connLog) {
			defer wg.Done()
			p.loop(c, lg, deadline)
			lg.busy = time.Since(start)
		}(c, logs[i])
	}
	wg.Wait()
	return logs
}

func (p phase) loop(c *conn, lg *connLog, deadline time.Time) {
	for time.Now().Before(deadline) {
		seq := c.next
		c.next++
		s := c.stream[seq%len(c.stream)]
		if p.readsOnly && s.cl.isWrite() {
			continue
		}
		params := s.params(c.idx, seq)
		lg.attempts++
		var (
			rows [][]cypher.Val
			sum  *bolt.Summary
			err  error
			t0   time.Time
			d    time.Duration
		)
		send := func() {
			t0 = time.Now()
			_, rows, sum, err = c.cl.Run(queries[s.cl], params)
			d = time.Since(t0)
		}
		if p.lad != nil && !s.cl.isWrite() && seq%p.traceEvery == 0 {
			lg.ladders++
			if lerr := p.lad.climb(lg, c.idx, seq, lg.ladders, s, params, send, func() (time.Time, time.Duration) { return t0, d }); lerr != nil && len(lg.ladderEr) < maxErrs {
				lg.ladderEr = append(lg.ladderEr, lerr.Error())
			}
		} else {
			send()
		}
		if err != nil {
			lg.fail(fmt.Errorf("%s: %w", s.cl, err))
			if bolt.TransportRetryable(err) {
				return // the connection is gone; stop this client
			}
			continue
		}
		lg.lat[s.cl] = append(lg.lat[s.cl], d)
		if p.keep != nil && p.keep(s) && (s.cl.isWrite() || lg.keptRead < maxKeptPerConn) {
			if !s.cl.isWrite() {
				lg.keptRead++
			}
			o := outcome{s: s, rows: rows, sum: sum}
			if s.cl.isWrite() {
				o.val = writeValue(c.idx, seq)
			}
			lg.kept = append(lg.kept, o)
		}
	}
}
