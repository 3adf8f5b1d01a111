package aion

import (
	"context"
	"errors"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// TestReadsObserveCancellation calls every ctx-taking read with a context
// cancelled before the call, once with the LineageStore answering the
// point and expansion reads (SyncBoth) and once with the cascade lagging,
// so that they fall back to the TimeStore. Node 0 carries 768 versions and
// outgoing relationships and relationship 0 768 versions, more than the
// LineageStore's cancel stride; the one-byte GraphStore budget keeps the
// TimeStore cache cold, so every TimeStore read replays the log. Each read
// must fail with context.Canceled under the cancelled ctx and succeed
// under a live one.
func TestReadsObserveCancellation(t *testing.T) {
	const n = 768
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i <= n; i++ {
		us = append(us, model.AddNode(ts, model.NodeID(i), []string{"N"}, nil))
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
	mid := ts / 2

	for _, tc := range []struct {
		name string
		mode SyncMode
		lag  bool
	}{
		{"lineage", SyncBoth, false},
		{"lagging", SyncHybrid, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, Options{Mode: tc.mode, SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1})
			for i := 0; i < len(us); i += 50 {
				if err := db.ApplyBatch(us[i:min(i+50, len(us))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.WaitSync(); err != nil {
				t.Fatal(err)
			}
			if tc.lag {
				// Append past the cascade: the TimeStore now runs one commit
				// ahead of the LineageStore, as it does while the cascade
				// lags, so reads reaching the newest timestamp fall back.
				if err := db.ts.AppendBatch([]model.Update{model.AddNode(ts, n+1, nil, nil)}); err != nil {
					t.Fatal(err)
				}
			}
			latest := db.LatestTimestamp()
			want, other := "LineageStore", "TimeStore"
			if tc.lag {
				want, other = other, want
			}

			live := context.Background()
			cancelled, cancel := context.WithCancel(live)
			cancel()
			var ctx context.Context
			keep := func(*memgraph.Graph) bool { return true }
			reads := []struct {
				name    string
				planned bool // routed by the planner to either store
				call    func() error
			}{
				{"GetNode", true, func() error { _, err := db.GetNodeContext(ctx, 0, 0, model.TSInfinity); return err }},
				{"GetRelationship", true, func() error { _, err := db.GetRelationshipContext(ctx, 0, 0, model.TSInfinity); return err }},
				{"GetRelationships", true, func() error {
					_, err := db.GetRelationshipsContext(ctx, 0, model.Outgoing, 0, model.TSInfinity)
					return err
				}},
				{"Expand", true, func() error { _, err := db.ExpandContext(ctx, 0, model.Outgoing, 1, latest); return err }},
				{"ExpandRange", true, func() error {
					_, err := db.ExpandRangeContext(ctx, 0, model.Outgoing, 1, latest, latest, 1)
					return err
				}},
				{"ExpandViaTimeStore", false, func() error {
					_, err := db.ExpandViaTimeStoreContext(ctx, 0, model.Outgoing, 1, mid)
					return err
				}},
				{"ScanGraphs", false, func() error { return db.ScanGraphsContext(ctx, 1, mid, 100, keep) }},
				{"GetDiff", false, func() error { _, err := db.GetDiffContext(ctx, 0, model.TSInfinity); return err }},
				{"GraphAt", false, func() error { _, err := db.GraphAtContext(ctx, mid); return err }},
				{"GetGraph", false, func() error { _, err := db.GetGraphContext(ctx, 1, mid, 100); return err }},
				{"GetWindow", false, func() error { _, err := db.GetWindowContext(ctx, 1, mid); return err }},
				{"GetTemporalGraph", false, func() error { _, err := db.GetTemporalGraphContext(ctx, 1, mid); return err }},
			}
			for _, r := range reads {
				ctx = cancelled
				if err := r.call(); !errors.Is(err, context.Canceled) {
					t.Errorf("%s with a cancelled ctx: err = %v, want context.Canceled", r.name, err)
				}
				lin0, time0 := db.PlannerDecisions()
				ctx = live
				if err := r.call(); err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				if !r.planned {
					continue
				}
				lin1, time1 := db.PlannerDecisions()
				served := map[string]int64{"LineageStore": lin1 - lin0, "TimeStore": time1 - time0}
				if served[want] == 0 || served[other] != 0 {
					t.Errorf("%s: served %v, want only the %s", r.name, served, want)
				}
			}
		})
	}
}
