package aion

import (
	"context"
	"math/rand"
	"testing"

	"aion/internal/model"
)

// evolvedDB builds a store with creations, property updates, deletions and
// re-insertions so both stores carry non-trivial histories.
func evolvedDB(t *testing.T, mode SyncMode) *DB {
	t.Helper()
	db := openDB(t, Options{Mode: mode, SnapshotEveryOps: 9})
	rng := rand.New(rand.NewSource(3))
	ts := model.Timestamp(0)
	var us []model.Update
	for i := 0; i < 12; i++ {
		ts++
		us = append(us, model.AddNode(ts, model.NodeID(i), []string{"N"},
			model.Properties{"v": model.IntValue(int64(i))}))
	}
	live := map[model.RelID][2]model.NodeID{}
	next := model.RelID(0)
	for step := 0; step < 80; step++ {
		ts++
		switch rng.Intn(5) {
		case 0, 1, 2:
			s, x := model.NodeID(rng.Intn(12)), model.NodeID(rng.Intn(12))
			us = append(us, model.AddRel(ts, next, s, x, "R",
				model.Properties{"w": model.FloatValue(float64(step))}))
			live[next] = [2]model.NodeID{s, x}
			next++
		case 3:
			for rid, ends := range live {
				us = append(us, model.DeleteRel(ts, rid, ends[0], ends[1]))
				delete(live, rid)
				break
			}
		case 4:
			id := model.NodeID(rng.Intn(12))
			us = append(us, model.UpdateNode(ts, id, nil, nil,
				model.Properties{"step": model.IntValue(int64(step))}, nil))
		}
	}
	if err := db.ApplyBatch(us); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitSync(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFallbackPathsAgreeWithLineage runs the same point/history queries
// through the LineageStore and the TimeStore fallback implementations and
// requires identical entity states (the Sec 5.1 guarantee: the fallback may
// be slower, never wrong).
func TestFallbackPathsAgreeWithLineage(t *testing.T) {
	ctx := context.Background()
	db := evolvedDB(t, SyncBoth)
	maxTS := db.LatestTimestamp()
	for probe := model.Timestamp(1); probe <= maxTS; probe += 7 {
		for id := model.NodeID(0); id < 12; id++ {
			viaLS, err := db.LineageStore().GetNodeContext(ctx, id, probe, probe)
			if err != nil {
				t.Fatal(err)
			}
			viaTS, err := db.tsGetNode(context.Background(), id, probe, probe)
			if err != nil {
				t.Fatal(err)
			}
			if len(viaLS) != len(viaTS) {
				t.Fatalf("ts %d node %d: lineage %d vs timestore %d versions",
					probe, id, len(viaLS), len(viaTS))
			}
			if len(viaLS) == 1 && !viaLS[0].Props.Equal(viaTS[0].Props) {
				t.Fatalf("ts %d node %d: props differ: %v vs %v",
					probe, id, viaLS[0].Props, viaTS[0].Props)
			}
			// Degrees via both stores.
			relsLS, err := db.LineageStore().GetRelationshipsContext(ctx, id, model.Outgoing, probe, probe)
			if err != nil {
				t.Fatal(err)
			}
			g, err := db.GraphAtContext(ctx, probe)
			if err != nil {
				t.Fatal(err)
			}
			if len(relsLS) != len(g.Out(id)) {
				t.Fatalf("ts %d node %d: lineage degree %d vs snapshot %d",
					probe, id, len(relsLS), len(g.Out(id)))
			}
		}
	}
}

// TestHistoryFallbackAgrees compares entity history ranges across both
// implementations.
func TestHistoryFallbackAgrees(t *testing.T) {
	ctx := context.Background()
	db := evolvedDB(t, SyncBoth)
	maxTS := db.LatestTimestamp()
	for id := model.NodeID(0); id < 12; id += 3 {
		viaLS, err := db.LineageStore().GetNodeContext(ctx, id, 1, maxTS)
		if err != nil {
			t.Fatal(err)
		}
		viaTS, err := db.tsGetNode(context.Background(), id, 1, maxTS)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaLS) != len(viaTS) {
			t.Fatalf("node %d history: lineage %d vs timestore %d versions",
				id, len(viaLS), len(viaTS))
		}
	}
	// Relationship history for every rel that ever existed.
	diff, _ := db.GetDiffContext(ctx, 0, model.TSInfinity)
	seen := map[model.RelID]bool{}
	for _, u := range diff {
		if u.Kind != model.OpAddRel || seen[u.RelID] {
			continue
		}
		seen[u.RelID] = true
		viaLS, err := db.LineageStore().GetRelationshipContext(ctx, u.RelID, 1, maxTS)
		if err != nil {
			t.Fatal(err)
		}
		viaTS, err := db.tsGetRelationship(context.Background(), u.RelID, 1, maxTS)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaLS) != len(viaTS) {
			t.Fatalf("rel %d history: lineage %d vs timestore %d versions",
				u.RelID, len(viaLS), len(viaTS))
		}
	}
}

// TestHybridLagServesFromTimeStore forces the hybrid cascade to lag (by not
// waiting) and checks queries still answer correctly during the lag.
func TestHybridLagServesFromTimeStore(t *testing.T) {
	db := openDB(t, Options{})
	var us []model.Update
	for i := 0; i < 50; i++ {
		us = append(us, model.AddNode(model.Timestamp(i+1), model.NodeID(i), nil,
			model.Properties{"i": model.IntValue(int64(i))}))
	}
	for _, u := range us {
		if err := db.ApplyBatch([]model.Update{u}); err != nil {
			t.Fatal(err)
		}
		// Query immediately at the newest timestamp; the cascade may lag.
		ns, err := db.GetNodeContext(context.Background(), u.NodeID, u.TS, u.TS)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) != 1 || ns[0].Props["i"].Int() != int64(u.NodeID) {
			t.Fatalf("query during lag wrong: %v", ns)
		}
	}
	db.WaitSync()
}

// TestLineageOnlyGlobalQueriesFail covers the ErrNoStore paths.
func TestLineageOnlyGlobalQueriesFail(t *testing.T) {
	ctx := context.Background()
	db := openDB(t, Options{Mode: SyncLineageOnly})
	db.ApplyBatch([]model.Update{model.AddNode(1, 0, nil, nil)})
	if _, err := db.GetDiffContext(ctx, 0, 10); err != ErrNoStore {
		t.Errorf("GetDiff: %v", err)
	}
	if _, err := db.GetGraphContext(ctx, 0, 10, 1); err != ErrNoStore {
		t.Errorf("GetGraph: %v", err)
	}
	if _, err := db.GetWindowContext(ctx, 0, 10); err != ErrNoStore {
		t.Errorf("GetWindow: %v", err)
	}
	if _, err := db.GetTemporalGraphContext(ctx, 0, 10); err != ErrNoStore {
		t.Errorf("GetTemporalGraph: %v", err)
	}
	if err := db.ScanGraphsContext(ctx, 0, 10, 1, nil); err != ErrNoStore {
		t.Errorf("ScanGraphs: %v", err)
	}
	if _, err := db.ExpandViaTimeStoreContext(ctx, 0, model.Outgoing, 1, 1); err != ErrNoStore {
		t.Errorf("ExpandViaTimeStore: %v", err)
	}
}
