package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"time"

	"aion/internal/aion"
	"aion/internal/cypher"
	"aion/internal/model"
)

// span is one timed call at a layer boundary. Spans of one statement share
// req; parent is the id of the span of the layer above (0 at the top).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span slots within one statement's ladder. A span id is req*slotCount +
// slot, so ids are unique without coordination between connections.
const (
	slotBolt = 1 + iota
	slotParse
	slotExec
	slotAion  // aion.GetNode, aion.GraphAt or aion.GetWindow
	slotAion2 // aion.Expand
	slotStore
	slotStore2
	slotCount
)

// ladder sends a statement down successive public layers, one call per
// layer, and records a span around each call:
//
//	bolt.Client.Run → cypher.Parse + Engine.ExecContext → the aion call
//	the statement maps to → the store call beneath that.
//
// The calls run one after another, not nested, so a layer's self time is
// its duration minus its children's. Each call after the first reuses
// caches the first one warmed, so the ladder alternates direction: even
// samples run outer to inner, odd samples inner to outer.
type ladder struct {
	eng   *cypher.Engine
	db    *aion.DB
	epoch time.Time
}

// climb runs the ladder for read statement seq of connection conn; sample
// counts the connection's laddered statements and sets the direction.
// Writes are not laddered: re-executing one in process would write twice.
// send makes
// the Bolt call and timing reports its start and duration; the caller
// keeps using the Bolt result as the statement's outcome.
func (l *ladder) climb(lg *connLog, conn, seq, sample int, s stmt, params map[string]model.Value, send func(), timing func() (time.Time, time.Duration)) error {
	req := writeValue(conn, seq)
	ctx := context.Background()
	record := func(slot, parent int, name string, t0 time.Time, d time.Duration) {
		start := t0.Sub(l.epoch).Nanoseconds()
		pid := int64(0)
		if parent > 0 {
			pid = req*slotCount + int64(parent)
		}
		lg.spans = append(lg.spans, span{ID: req*slotCount + int64(slot), Parent: pid, Req: req,
			Name: name, Start: start, End: start + d.Nanoseconds()})
	}
	timed := func(slot, parent int, name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		record(slot, parent, name, t0, time.Since(t0))
		return err
	}
	boltStep := func() error {
		send()
		t0, d := timing()
		record(slotBolt, 0, "bolt.Run", t0, d)
		return nil
	}
	cypherStep := func() error {
		var st *cypher.Statement
		if err := timed(slotParse, slotBolt, "cypher.Parse", func() (err error) {
			st, err = cypher.Parse(queries[s.cl])
			return err
		}); err != nil {
			return err
		}
		return timed(slotExec, slotBolt, "cypher.Exec", func() error {
			_, err := l.eng.ExecContext(ctx, st, params)
			return err
		})
	}
	aionStep, storeStep := l.layerCalls(ctx, s)
	steps := []func() error{boltStep, cypherStep,
		func() error { return aionStep(timed) }, func() error { return storeStep(timed) }}
	if sample%2 == 1 {
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
	}
	var first error
	for _, step := range steps {
		if err := step(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type timedFn func(slot, parent int, name string, fn func() error) error

// layerCalls returns the aion-level and store-level calls a read statement
// maps to: the same calls the engine makes for it.
func (l *ladder) layerCalls(ctx context.Context, s stmt) (aionStep, storeStep func(timedFn) error) {
	ts := model.Timestamp(s.ts)
	id := model.NodeID(s.id)
	ls, tstore := l.db.LineageStore(), l.db.TimeStore()
	switch s.cl {
	case clLookup, clExpand:
		expand := s.cl == clExpand
		aionStep = func(timed timedFn) error {
			if err := timed(slotAion, slotExec, "aion.GetNode", func() error {
				_, err := l.db.GetNodeContext(ctx, id, ts, ts)
				return err
			}); err != nil || !expand {
				return err
			}
			return timed(slotAion2, slotExec, "aion.Expand", func() error {
				_, err := l.db.ExpandContext(ctx, id, model.Outgoing, 1, ts)
				return err
			})
		}
		storeStep = func(timed timedFn) error {
			if err := timed(slotStore, slotAion, "lineagestore.GetNode", func() error {
				_, err := ls.GetNodeContext(ctx, id, ts, ts)
				return err
			}); err != nil || !expand {
				return err
			}
			return timed(slotStore2, slotAion2, "lineagestore.Expand", func() error {
				_, err := ls.ExpandContext(ctx, id, model.Outgoing, 1, ts)
				return err
			})
		}
	case clCount:
		aionStep = func(timed timedFn) error {
			return timed(slotAion, slotExec, "aion.GraphAt", func() error {
				_, err := l.db.GraphAtContext(ctx, ts)
				return err
			})
		}
		storeStep = func(timed timedFn) error {
			return timed(slotStore, slotAion, "timestore.GetGraph", func() error {
				_, err := tstore.GetGraphContext(ctx, ts)
				return err
			})
		}
	case clWindow:
		end := ts + windowSpan
		aionStep = func(timed timedFn) error {
			return timed(slotAion, slotExec, "aion.GetWindow", func() error {
				_, err := l.db.GetWindowContext(ctx, ts, end)
				return err
			})
		}
		storeStep = func(timed timedFn) error {
			return timed(slotStore, slotAion, "timestore.GetWindow", func() error {
				_, err := tstore.GetWindowContext(ctx, ts, end)
				return err
			})
		}
	}
	return aionStep, storeStep
}

// spanStats holds, per span name, the durations and self times of every
// recorded span. Self time is a span's duration minus the durations of its
// children.
type spanStats struct {
	dur, self map[string][]time.Duration
}

func analyze(spans []span) spanStats {
	children := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	st := spanStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], s.dur()-children[s.ID])
	}
	return st
}

// writeSpans writes the spans as JSON lines, ordered by request then start.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Req != spans[j].Req {
			return spans[i].Req < spans[j].Req
		}
		return spans[i].Start < spans[j].Start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
