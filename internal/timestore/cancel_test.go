package timestore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// TestReadsObserveCancellation calls every ctx-taking read with a context
// cancelled before the call. The history is long enough that each read
// must replay more than one readahead batch, and the GraphStore budget of
// one byte keeps the cache cold, so no read can answer without scanning:
// each must fail with context.Canceled under the cancelled ctx and succeed
// under a live one.
func TestReadsObserveCancellation(t *testing.T) {
	us := chainUpdates(2000)
	mid := model.Timestamp(len(us) / 2)
	for _, opts := range []Options{
		{SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1, ParallelIO: 1},
		{SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1, ParallelIO: 2},
		{SnapshotEveryOps: 1 << 30, GraphStoreBytes: 1, ParallelIO: 2, PartitionEvery: 500, DeltaChainLength: 2},
	} {
		t.Run(fmt.Sprintf("par=%d/partition=%d", opts.ParallelIO, opts.PartitionEvery), func(t *testing.T) {
			s := openStore(t, opts)
			// Batches of 50 let the seal trigger fire between them.
			for i := 0; i < len(us); i += 50 {
				if err := s.AppendBatch(us[i:min(i+50, len(us))]); err != nil {
					t.Fatal(err)
				}
			}
			s.WaitSnapshots()
			if opts.PartitionEvery > 0 && len(s.parts) == 0 {
				t.Fatal("workload sealed no partition")
			}
			live := context.Background()
			cancelled, cancel := context.WithCancel(live)
			cancel()
			var ctx context.Context
			keep := func(model.Update) bool { return true }
			keepG := func(*memgraph.Graph) bool { return true }
			reads := []struct {
				name string
				call func() error
			}{
				{"GetDiff", func() error { _, err := s.GetDiffContext(ctx, 0, model.TSInfinity); return err }},
				{"ScanDiff", func() error { return s.ScanDiffContext(ctx, 0, model.TSInfinity, keep) }},
				{"GetGraph", func() error { _, err := s.GetGraphContext(ctx, mid); return err }},
				{"GetGraphs", func() error { _, err := s.GetGraphsContext(ctx, 1, mid, 100); return err }},
				{"ScanGraphs", func() error { return s.ScanGraphsContext(ctx, 1, mid, 100, keepG) }},
				{"GetTemporalGraph", func() error { _, err := s.GetTemporalGraphContext(ctx, 1, mid); return err }},
				{"GetWindow", func() error { _, err := s.GetWindowContext(ctx, 1, mid); return err }},
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
		})
	}
}
