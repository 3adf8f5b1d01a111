package bench

import (
	"context"
	"fmt"
	"math/rand"

	"aion/internal/datagen"
	"aion/internal/model"
)

// Fig8Row is one Dataset(#hops) group of Fig 8: n-hop throughput for
// Raphtory, LineageStore, and TimeStore.
type Fig8Row struct {
	Dataset  string
	Hops     int
	Raphtory float64 // ops/s
	Lineage  float64
	Time     float64
}

// RunFig8 regenerates Fig 8: n-hop graph accesses starting from random
// nodes, hops in {1, 2, 4, 8}.
func RunFig8(c Config, dir func(string) string, hopsList []int, queriesPerHop int) ([]Fig8Row, error) {
	ctx := context.Background()
	c.Defaults()
	if len(hopsList) == 0 {
		hopsList = []int{1, 2, 4, 8}
	}
	if queriesPerHop <= 0 {
		queriesPerHop = 10
	}
	var rows []Fig8Row
	t := &table{header: []string{"Dataset(#hops)", "Raphtory (ops/s)", "LineageStore (ops/s)", "TimeStore (ops/s)"}}
	for _, name := range c.Datasets {
		ds, db, raph, _, err := loadSystems(c, name, dir(name))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(c.Seed + 2))
		maxNode := model.NodeID(ds.Spec.Nodes)
		starts := make([]model.NodeID, queriesPerHop)
		tss := make([]model.Timestamp, queriesPerHop)
		for i := range starts {
			starts[i] = model.NodeID(rng.Int63n(int64(maxNode)))
			tss[i] = model.Timestamp(rng.Int63n(int64(ds.MaxTS)) + 1)
		}
		for _, hops := range hopsList {
			raphDur := timeIt(func() {
				for i := range starts {
					raph.NHop(starts[i], model.Outgoing, hops, tss[i])
				}
			})
			ls := db.LineageStore()
			lsDur := timeIt(func() {
				for i := range starts {
					if _, err := ls.ExpandContext(ctx, starts[i], model.Outgoing, hops, tss[i]); err != nil {
						panic(err)
					}
				}
			})
			tsDur := timeIt(func() {
				for i := range starts {
					if _, err := db.ExpandViaTimeStoreContext(ctx, starts[i], model.Outgoing, hops, tss[i]); err != nil {
						panic(err)
					}
				}
			})
			row := Fig8Row{
				Dataset:  name,
				Hops:     hops,
				Raphtory: opsPerSec(queriesPerHop, raphDur),
				Lineage:  opsPerSec(queriesPerHop, lsDur),
				Time:     opsPerSec(queriesPerHop, tsDur),
			}
			rows = append(rows, row)
			t.add(fmt.Sprintf("%s(%d)", name, hops),
				f2(row.Raphtory), f2(row.Lineage), f2(row.Time))
		}
		db.Close()
	}
	t.print(c.Out, "Fig 8: n-hop graph accesses")
	return rows, nil
}

// EstimateHopCoverage reports, for a dataset, the average fraction of the
// graph an n-hop query touches — the quantity behind the 30 % heuristic of
// Sec 6.3.
func EstimateHopCoverage(c Config, name string, hops int, samples int) (float64, error) {
	ctx := context.Background()
	c.Defaults()
	ds := c.genDataset(name, datagen.Options{})
	_ = ds
	db, err := openAionTemp(c, ds)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(c.Seed + 3))
	total := 0.0
	for i := 0; i < samples; i++ {
		start := model.NodeID(rng.Int63n(int64(ds.Spec.Nodes)))
		res, err := db.ExpandViaTimeStoreContext(ctx, start, model.Outgoing, hops, ds.MaxTS)
		if err != nil {
			return 0, err
		}
		touched := 0
		for _, hop := range res {
			touched += len(hop)
		}
		total += float64(touched) / float64(ds.Spec.Nodes)
	}
	return total / float64(samples), nil
}
