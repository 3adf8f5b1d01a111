package bench

// RunHistory measures GetGraph latency as a function of history depth —
// how far back in time the queried snapshot lies — for three TimeStore
// layouts: a monolithic log with no snapshots (replay from genesis, the
// O(history) baseline), a monolithic log with periodic full snapshots,
// and a partitioned store with per-partition delta chains. The
// partitioned layout's claim is that latency stays flat regardless of
// depth because a query replays at most one partition's chain segment.
//
// The snapshot cache is squeezed to a token budget so each query pays
// the real materialization cost of its storage structure rather than
// hitting a previously cached graph.

import (
	"context"
	"fmt"
	"time"

	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/timestore"
)

// historyConfig is one storage layout under measurement.
type historyConfig struct {
	label string
	opts  timestore.Options
}

func historyConfigs(n int) []historyConfig {
	return []historyConfig{
		{"mono-nosnap", timestore.Options{SnapshotEveryOps: 1 << 30}},
		{"mono-snap", timestore.Options{SnapshotEveryOps: n/8 + 1}},
		{"partitioned", timestore.Options{
			SnapshotEveryOps: n/8 + 1,
			PartitionEvery:   n/16 + 1,
			DeltaChainLength: 4,
		}},
	}
}

// RunHistory runs the history-depth experiment on the first configured
// dataset and returns the printed table.
func RunHistory(c Config, mkdir func(string) string) (*table, error) {
	ctx := context.Background()
	c.Defaults()
	name := c.Datasets[0]
	ds := c.genDataset(name, datagen.Options{})
	n := len(ds.Updates)
	depths := []float64{0.10, 0.25, 0.50, 0.75, 1.00}

	tb := &table{header: []string{"config", "depth", "p50 us", "p99 us", "replayed/op", "disk"}}
	for _, hc := range historyConfigs(n) {
		opts := hc.opts
		opts.Dir = mkdir("history-" + hc.label)
		opts.GraphStoreBytes = 4096 // effectively uncached: pay the real cost
		st, err := timestore.Open(enc.NewCodec(strstore.NewMem()), opts)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i += 256 {
			j := i + 256
			if j > n {
				j = n
			}
			if err := st.AppendBatch(ds.Updates[i:j]); err != nil {
				st.Close()
				return nil, err
			}
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, err
		}
		st.WaitSnapshots()
		maxTS := st.LatestTimestamp()

		for _, depth := range depths {
			ts0 := model.Timestamp(float64(maxTS) * depth)
			if ts0 < 1 {
				ts0 = 1
			}
			lats := make([]time.Duration, 0, c.GlobalOps)
			base := st.Stats().ReplayedUpdates
			for i := 0; i < c.GlobalOps; i++ {
				// Step the timestamp so no two queries share a cache slot.
				ts := ts0 - model.Timestamp(i)
				if ts < 1 {
					ts = 1
				}
				var gerr error
				lats = append(lats, timeIt(func() { _, gerr = st.GetGraphContext(ctx, ts) }))
				if gerr != nil {
					st.Close()
					return nil, gerr
				}
			}
			replayed := float64(st.Stats().ReplayedUpdates-base) / float64(len(lats))
			p50 := percentileMicros(lats, 0.50)
			p99 := percentileMicros(lats, 0.99)
			tb.add(hc.label, fmt.Sprintf("%.0f%%", depth*100), f1(p50), f1(p99),
				f1(replayed), mb(st.DiskBytes()))
			c.record(Record{
				Name:      fmt.Sprintf("history/%s/depth=%.0f%%", hc.label, depth*100),
				Ops:       len(lats),
				OpsPerSec: opsPerSec(len(lats), sum(lats)),
				P50Micros: p50,
				P99Micros: p99,
			})
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	tb.print(c.Out, fmt.Sprintf("GetGraph latency vs history depth (%s, %d updates)", name, n))
	return tb, nil
}

func sum(lats []time.Duration) time.Duration {
	var t time.Duration
	for _, l := range lats {
		t += l
	}
	return t
}
