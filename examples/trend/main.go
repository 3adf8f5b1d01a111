// Trend: mining trends over time with incremental computation (the paper's
// "PageRank of a social network daily over a month" use case). A synthetic
// social graph streams in; the example then asks for a per-window series of
// (i) the running average interaction weight and (ii) the most central
// node, computed incrementally via getDiff instead of recomputing every
// snapshot from scratch.
//
// Run with: go run ./examples/trend
package main

import (
	"context"
	"fmt"
	"log"

	"aion/internal/aion"
	"aion/internal/algo"
	"aion/internal/datagen"
	"aion/internal/incremental"
	"aion/internal/model"
)

func main() {
	ctx := context.Background()
	// A scaled-down Pokec-like social network with weighted interactions.
	spec := datagen.MustPreset("Pokec", 2000)
	ds := datagen.Generate(spec, datagen.Options{Seed: 7, RelWeightProp: "w"})
	fmt.Printf("dataset: %s-like, %d nodes, %d rels, %d updates\n",
		spec.Name, spec.Nodes, spec.Rels, len(ds.Updates))

	db, err := aion.Open(aion.Options{SnapshotEveryOps: len(ds.Updates) / 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ApplyBatch(ds.Updates); err != nil {
		log.Fatal(err)
	}
	if err := db.WaitSync(); err != nil {
		log.Fatal(err)
	}

	// Ten windows over the second half of the history.
	start := ds.MaxTS / 2
	step := (ds.MaxTS - start) / 10
	if step < 1 {
		step = 1
	}

	// Seed the incremental state from the snapshot at the window start.
	g, err := db.GraphAtContext(ctx, start)
	if err != nil {
		log.Fatal(err)
	}
	avg := incremental.NewAvg("w")
	avg.InitFrom(g)
	pr := incremental.NewPageRank(algo.PageRankOptions{})
	ranks := pr.Run(g)

	fmt.Println("\nts        rels   avg(w)   top-node  pr-iters")
	emit := func(ts model.Timestamp) {
		var top model.NodeID = -1
		var best float64
		for id, r := range ranks {
			if r > best {
				top, best = id, r
			}
		}
		fmt.Printf("%-9d %-6d %-8.2f n%-8d %d\n",
			ts, avg.Count(), avg.Value(), top, pr.LastIterations)
	}
	emit(start)

	prev := start
	for ts := start + step; ts <= ds.MaxTS; ts += step {
		// Incremental: fetch only the diff and fold it into the state.
		diff, err := db.GetDiffContext(ctx, prev+1, ts+1)
		if err != nil {
			log.Fatal(err)
		}
		for _, u := range diff {
			if err := g.Apply(u); err != nil {
				log.Fatal(err)
			}
		}
		avg.ApplyDiff(diff)
		ranks = pr.Run(g) // warm-started: few iterations per window
		emit(ts)
		prev = ts
	}

	fmt.Println("\nincremental PageRank warm-start kept iteration counts low;")
	fmt.Println("a cold run would pay the full convergence cost per window.")
}
