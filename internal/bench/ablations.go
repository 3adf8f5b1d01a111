package bench

import (
	"context"
	"math/rand"

	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/strstore"
	"aion/internal/timestore"
)

// RunSnapshotPolicyAblation sweeps the TimeStore's operation-based snapshot
// policy (Sec 4.3 leaves the interval to a user-defined policy): fewer
// snapshots save disk but lengthen the log replay that GetGraph performs.
func RunSnapshotPolicyAblation(c Config) error {
	ctx := context.Background()
	c.Defaults()
	ds := c.genDataset("DBLP", datagen.Options{})
	t := &table{header: []string{"snapshot every", "#snapshots", "snapshot bytes", "avg GetGraph (ms)"}}
	for _, every := range []int{len(ds.Updates) / 2, len(ds.Updates) / 8, len(ds.Updates) / 32} {
		if every < 1 {
			every = 1
		}
		st, err := timestore.Open(enc.NewCodec(strstore.NewMem()), timestore.Options{
			SnapshotEveryOps: every,
			GraphStoreBytes:  1, // force disk reads so the policy matters
		})
		if err != nil {
			return err
		}
		if err := st.AppendBatch(ds.Updates); err != nil {
			return err
		}
		st.WaitSnapshots()
		rng := rand.New(rand.NewSource(c.Seed))
		queries := randTimestamps(rng, c.GlobalOps, ds.MaxTS)
		dur := timeIt(func() {
			for _, ts := range queries {
				if _, err2 := st.GetGraphContext(ctx, ts); err2 != nil {
					err = err2
					return
				}
			}
		})
		if err != nil {
			return err
		}
		stats := st.Stats()
		t.add(fi(int64(every))+" ops", fi(int64(stats.Snapshots)), mb(stats.SnapshotBytes),
			f2(dur.Seconds()*1000/float64(len(queries))))
		st.Close()
	}
	t.print(c.Out, "Ablation: TimeStore snapshot policy (storage vs snapshot latency)")
	return nil
}

// RunPlannerThresholdAblation measures, per hop count, the fraction of the
// graph an expansion touches and which store answers faster — locating the
// crossover that motivates the 30 % heuristic of Sec 5.1.
func RunPlannerThresholdAblation(c Config) error {
	ctx := context.Background()
	c.Defaults()
	name := c.Datasets[0]
	ds := c.genDataset(name, datagen.Options{})
	db, err := openAionTemp(c, ds)
	if err != nil {
		return err
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(c.Seed))
	const samples = 5
	t := &table{header: []string{"hops", "est. coverage", "LineageStore (ms)", "TimeStore (ms)", "faster"}}
	for _, hops := range []int{1, 2, 3, 4, 6} {
		starts := make([]model.NodeID, samples)
		for i := range starts {
			starts[i] = model.NodeID(rng.Int63n(int64(ds.Spec.Nodes)))
		}
		ls := db.LineageStore()
		lsDur := timeIt(func() {
			for _, s := range starts {
				ls.ExpandContext(ctx, s, model.Outgoing, hops, ds.MaxTS)
			}
		})
		tsDur := timeIt(func() {
			for _, s := range starts {
				db.ExpandViaTimeStoreContext(ctx, s, model.Outgoing, hops, ds.MaxTS)
			}
		})
		frac := db.Stats().EstimateExpandFraction(hops, model.Outgoing)
		faster := "LineageStore"
		if tsDur < lsDur {
			faster = "TimeStore"
		}
		t.add(fi(int64(hops)), f2(frac),
			f2(lsDur.Seconds()*1000/samples), f2(tsDur.Seconds()*1000/samples), faster)
	}
	t.print(c.Out, "Ablation: planner store-selection crossover (30% heuristic, Sec 5.1)")
	return nil
}

// RunParallelIOAblation sweeps the worker count of the snapshot
// (de)serialization and replay pipelines (Options.ParallelIO): GetGraph is
// forced to load its base snapshot from disk (GraphStoreBytes=1) so each
// query pays the full read+CRC+decode+apply path that the pipeline
// parallelizes.
func RunParallelIOAblation(c Config) error {
	ctx := context.Background()
	c.Defaults()
	ds := c.genDataset(c.Datasets[0], datagen.Options{})
	levels := []int{1, 2, 4, pool.DefaultWorkers()}
	t := &table{header: []string{"parallel IO", "snapshot write (ms)", "avg GetGraph (ms)"}}
	for _, par := range levels {
		st, err := timestore.Open(enc.NewCodec(strstore.NewMem()), timestore.Options{
			SnapshotEveryOps: 1 << 30, // one eager snapshot below, none from policy
			GraphStoreBytes:  1,       // evict aggressively: force disk snapshot loads
			ParallelIO:       par,
		})
		if err != nil {
			return err
		}
		if err := st.AppendBatch(ds.Updates); err != nil {
			return err
		}
		wDur := timeIt(func() { err = st.CreateSnapshot() })
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(c.Seed))
		queries := randTimestamps(rng, c.GlobalOps, ds.MaxTS)
		dur := timeIt(func() {
			for _, ts := range queries {
				if _, err2 := st.GetGraphContext(ctx, ts); err2 != nil {
					err = err2
					return
				}
			}
		})
		if err != nil {
			return err
		}
		t.add(fi(int64(par)), f2(wDur.Seconds()*1000),
			f2(dur.Seconds()*1000/float64(len(queries))))
		st.Close()
	}
	t.print(c.Out, "Ablation: parallel snapshot pipeline workers (Options.ParallelIO)")
	return nil
}
