package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aion/internal/aion"
	"aion/internal/baselines/gradoop"
	"aion/internal/baselines/raphtory"
	"aion/internal/datagen"
	"aion/internal/model"
)

// Fig6Row is one bar pair of Fig 6: point-query throughput (random
// relationship fetches at arbitrary time points), Aion vs Raphtory.
type Fig6Row struct {
	Dataset            string
	AionOpsPerSec      float64
	RaphtoryOpsPerSec  float64
	RaphtoryLoadedFrac float64
}

// loadSystems loads one dataset into Aion (hybrid) and the two baselines.
func loadSystems(c Config, name string, dir string) (*datagen.Dataset, *aion.DB, *raphtory.Graph, *gradoop.Engine, error) {
	ds := c.genDataset(name, datagen.Options{})
	db, err := aion.Open(aion.Options{Dir: dir, Mode: aion.SyncBoth,
		SnapshotEveryOps: len(ds.Updates)/8 + 1})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := db.ApplyBatch(ds.Updates); err != nil {
		db.Close()
		return nil, nil, nil, nil, err
	}
	db.TimeStore().WaitSnapshots() // settle background snapshots before measuring
	r := raphtory.New()
	r.IngestAll(ds.Updates)
	g := gradoop.New()
	g.LoadAll(ds.Updates)
	return ds, db, r, g, nil
}

// RunFig6 regenerates Fig 6: fetching random relationships.
func RunFig6(c Config, dir func(string) string) ([]Fig6Row, error) {
	ctx := context.Background()
	c.Defaults()
	var rows []Fig6Row
	t := &table{header: []string{"Dataset", "Aion (ops/s)", "Raphtory (ops/s)", "Raphtory loaded"}}
	for _, name := range c.Datasets {
		ds, db, raph, _, err := loadSystems(c, name, dir(name))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(c.Seed))
		// Random (relID, ts) pairs; the same sequence drives both systems.
		ids := make([]model.RelID, c.PointOps)
		tss := randTimestamps(rng, c.PointOps, ds.MaxTS)
		for i := range ids {
			ids[i] = ds.RelIDs[rng.Intn(len(ds.RelIDs))]
		}

		ls := db.LineageStore()
		aionDur := timeIt(func() {
			for i := range ids {
				if _, err := ls.GetRelationshipContext(ctx, ids[i], tss[i], tss[i]); err != nil {
					panic(err)
				}
			}
		})
		raphDur := timeIt(func() {
			for i := range ids {
				raph.GetRelationship(ids[i], tss[i])
			}
		})
		row := Fig6Row{
			Dataset:            name,
			AionOpsPerSec:      opsPerSec(c.PointOps, aionDur),
			RaphtoryOpsPerSec:  opsPerSec(c.PointOps, raphDur),
			RaphtoryLoadedFrac: raph.LoadedFraction(),
		}
		rows = append(rows, row)
		t.add(name, f1(row.AionOpsPerSec), f1(row.RaphtoryOpsPerSec),
			fmt.Sprintf("%.0f%%", 100*row.RaphtoryLoadedFrac))
		db.Close()
	}
	t.print(c.Out, "Fig 6: fetching random relationships (point queries)")
	return rows, nil
}

// Fig7Row is one group of Fig 7: runtime to fetch random full snapshots.
type Fig7Row struct {
	Dataset     string
	AionSec     float64
	RaphtorySec float64
	GradoopSec  float64
}

// RunFig7 regenerates Fig 7: fetching random snapshots (global queries).
func RunFig7(c Config, dir func(string) string) ([]Fig7Row, error) {
	ctx := context.Background()
	c.Defaults()
	var rows []Fig7Row
	t := &table{header: []string{"Dataset", "Aion (s)", "Raphtory (s)", "Gradoop (s)", "Aion vs Raph", "Aion vs Gradoop"}}
	for _, name := range c.Datasets {
		ds, db, raph, grad, err := loadSystems(c, name, dir(name))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(c.Seed + 1))
		tss := randTimestamps(rng, c.GlobalOps, ds.MaxTS)

		ts := db.TimeStore()
		var aionDur, raphDur, gradDur time.Duration
		aionDur = timeIt(func() {
			for _, q := range tss {
				if _, err := ts.GetGraphContext(ctx, q); err != nil {
					panic(err)
				}
			}
		})
		raphDur = timeIt(func() {
			for _, q := range tss {
				raph.Snapshot(q)
			}
		})
		gradDur = timeIt(func() {
			for _, q := range tss {
				grad.Snapshot(q)
			}
		})
		row := Fig7Row{
			Dataset:     name,
			AionSec:     aionDur.Seconds(),
			RaphtorySec: raphDur.Seconds(),
			GradoopSec:  gradDur.Seconds(),
		}
		rows = append(rows, row)
		t.add(name, f2(row.AionSec), f2(row.RaphtorySec), f2(row.GradoopSec),
			f1(row.RaphtorySec/row.AionSec)+"x", f1(row.GradoopSec/row.AionSec)+"x")
		db.Close()
	}
	t.print(c.Out, "Fig 7: fetching random snapshots (global queries)")
	return rows, nil
}
