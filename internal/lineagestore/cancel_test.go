package lineagestore

import (
	"context"
	"errors"
	"testing"

	"aion/internal/model"
)

// TestReadsObserveCancellation calls every ctx-taking read with a context
// cancelled before the call. Node 0 carries more than cancelStride versions
// and outgoing relationships, and relationship 0 more than cancelStride
// versions, so each read must scan past at least one cancel stride: it
// must fail with context.Canceled under the cancelled ctx and succeed under
// a live one.
func TestReadsObserveCancellation(t *testing.T) {
	const n = 3 * cancelStride
	s := openStore(t, Options{})
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i <= n; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i), nil, nil))
		ts++
	}
	for i := 1; i <= n; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i-1), 0, model.NodeID(i), "R", nil))
		ts++
	}
	for i := 0; i < n; i++ {
		v := model.Properties{"v": model.IntValue(int64(i))}
		us = append(us, model.UpdateNode(ts, 0, nil, nil, v, nil), model.UpdateRel(ts, 0, 0, 1, v, nil))
		ts++
	}
	apply(t, s, us...)

	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()
	var ctx context.Context
	reads := []struct {
		name string
		call func() error
	}{
		{"GetNode", func() error { _, err := s.GetNodeContext(ctx, 0, 0, model.TSInfinity); return err }},
		{"GetRelationship", func() error { _, err := s.GetRelationshipContext(ctx, 0, 0, model.TSInfinity); return err }},
		{"GetRelationships/point", func() error { _, err := s.GetRelationshipsContext(ctx, 0, model.Outgoing, ts, ts); return err }},
		{"GetRelationships/range", func() error {
			_, err := s.GetRelationshipsContext(ctx, 0, model.Outgoing, 0, model.TSInfinity)
			return err
		}},
		{"Expand", func() error { _, err := s.ExpandContext(ctx, 0, model.Outgoing, 2, ts); return err }},
	}
	for _, r := range reads {
		ctx = cancelled
		if err := r.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a cancelled ctx: err = %v, want context.Canceled", r.name, err)
		}
		ctx = live
		if err := r.call(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}
