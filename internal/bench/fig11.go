package bench

import (
	"context"
	"math/rand"

	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/model"
	"aion/internal/strstore"
)

// Fig11Row is one point of Fig 11: the delta-materialization sweep. The
// threshold is the delta-chain length before a full entity version is
// written; 32 means "never materialize" for the 32-update workload, 1 means
// "materialize on every update".
type Fig11Row struct {
	Threshold       int
	OpsPerSec       float64
	StorageBytes    int64
	StorageOverhead float64 // normalized to the never-materialize run
}

// RunFig11 regenerates Fig 11 on the DBLP workload: every relationship
// receives 32 new properties at discrete times, then random point lookups
// measure reconstruction throughput for thresholds {32, 16, 8, 4, 2, 1}.
func RunFig11(c Config, dir func(string) string, thresholds []int, chainLen int) ([]Fig11Row, error) {
	ctx := context.Background()
	c.Defaults()
	if len(thresholds) == 0 {
		thresholds = []int{32, 16, 8, 4, 2, 1}
	}
	if chainLen <= 0 {
		chainLen = 32
	}
	ds := c.genDataset("DBLP", datagen.Options{})
	chain := ds.PropertyUpdateChain(chainLen)

	var rows []Fig11Row
	var baseBytes int64
	t := &table{header: []string{"chain threshold", "throughput (ops/s)", "storage", "normalized storage"}}
	for _, th := range thresholds {
		storeTh := th
		if th >= chainLen {
			storeTh = -1 // never materialize
		}
		ls, err := lineagestore.Open(enc.NewCodec(strstore.NewMem()), lineagestore.Options{
			Dir:            dir(f1(float64(th))),
			ChainThreshold: storeTh,
		})
		if err != nil {
			return nil, err
		}
		if err := ls.ApplyBatch(ds.Updates); err != nil {
			return nil, err
		}
		if err := ls.ApplyBatch(chain); err != nil {
			return nil, err
		}
		if err := ls.Flush(); err != nil {
			return nil, err
		}

		rng := rand.New(rand.NewSource(c.Seed))
		ops := c.PointOps
		if ops < 2000 {
			ops = 2000
		}
		// Warm the page cache so the measurement reflects steady state.
		for i := 0; i < 500; i++ {
			rid := ds.RelIDs[rng.Intn(len(ds.RelIDs))]
			ls.GetRelationshipContext(ctx, rid, ds.MaxTS, ds.MaxTS)
		}
		ids := make([]model.RelID, ops)
		tss := randTimestamps(rng, ops, ds.MaxTS)
		for i := range ids {
			ids[i] = ds.RelIDs[rng.Intn(len(ds.RelIDs))]
		}
		dur := timeIt(func() {
			for i := range ids {
				if _, err := ls.GetRelationshipContext(ctx, ids[i], tss[i], tss[i]); err != nil {
					panic(err)
				}
			}
		})
		row := Fig11Row{
			Threshold:    th,
			OpsPerSec:    opsPerSec(ops, dur),
			StorageBytes: ls.DiskBytes(),
		}
		if baseBytes == 0 {
			baseBytes = row.StorageBytes
		}
		row.StorageOverhead = float64(row.StorageBytes) / float64(baseBytes)
		rows = append(rows, row)
		t.add(fi(int64(th)), f1(row.OpsPerSec), mb(row.StorageBytes), f2(row.StorageOverhead))
	}
	t.print(c.Out, "Fig 11: materialization strategy (history length of deltas)")
	return rows, nil
}
