package bench

import (
	"context"
	"fmt"
	"math/rand"

	"aion/internal/baselines/gradoop"
	"aion/internal/baselines/raphtory"
	"aion/internal/datagen"
	"aion/internal/enc"
	"aion/internal/lineagestore"
	"aion/internal/model"
	"aion/internal/strstore"
)

// Table4Row documents one system's storage/retrieval cost model (the
// analytic part of Table 4), with a measured scaling factor: how point-
// lookup latency grows when each entity's history is three times longer.
// Logarithmic costs scale ≈1x; linear history scans scale ≈3x.
type Table4Row struct {
	System        string
	Space         string
	RelRetrieval  string
	SnapshotCost  string
	Persistent    bool
	MeasuredScale float64 // latency(3x history) / latency(1x history)
}

// churn appends delete/re-add cycles for every relationship, multiplying
// each entity's update history without changing the graph's width.
func churn(ds *datagen.Dataset, cycles int) []model.Update {
	ends := map[model.RelID][2]model.NodeID{}
	for _, u := range ds.Updates {
		if u.Kind == model.OpAddRel {
			ends[u.RelID] = [2]model.NodeID{u.Src, u.Tgt}
		}
	}
	ts := ds.MaxTS
	var out []model.Update
	for c := 0; c < cycles; c++ {
		for _, rid := range ds.RelIDs {
			e := ends[rid]
			ts++
			out = append(out, model.DeleteRel(ts, rid, e[0], e[1]))
			ts++
			out = append(out, model.AddRel(ts, rid, e[0], e[1], "LINK", nil))
		}
	}
	ds.MaxTS = ts
	return out
}

// RunTable4 prints the Table 4 cost model and verifies it empirically:
// point-query latency under 1x vs 3x per-entity history.
func RunTable4(c Config, dir func(string) string) ([]Table4Row, error) {
	ctx := context.Background()
	c.Defaults()
	name := c.Datasets[0]

	measure := func(cycles int) (aionT, raphT, gradT float64, err error) {
		ds := datagen.Generate(datagen.MustPreset(name, c.Scale*4), datagen.Options{Seed: c.Seed})
		extra := churn(ds, cycles)
		all := append(append([]model.Update(nil), ds.Updates...), extra...)

		ls, err := lineagestore.Open(enc.NewCodec(strstore.NewMem()),
			lineagestore.Options{Dir: dir(fmt.Sprintf("t4-%d", cycles))})
		if err != nil {
			return 0, 0, 0, err
		}
		if err := ls.ApplyBatch(all); err != nil {
			return 0, 0, 0, err
		}
		raph := raphtory.New()
		raph.IngestAll(all)
		grad := gradoop.New()
		grad.LoadAll(all)

		rng := rand.New(rand.NewSource(c.Seed))
		const ops = 2000
		ids := make([]model.RelID, ops)
		tss := randTimestamps(rng, ops, ds.MaxTS)
		for i := range ids {
			ids[i] = ds.RelIDs[rng.Intn(len(ds.RelIDs))]
		}
		aionT = timeIt(func() {
			for i := range ids {
				ls.GetRelationshipContext(ctx, ids[i], tss[i], tss[i])
			}
		}).Seconds()
		raphT = timeIt(func() {
			for i := range ids {
				raph.GetRelationship(ids[i], tss[i])
			}
		}).Seconds()
		gradOps := ops / 20 // full scans: keep the run short
		gradT = timeIt(func() {
			for i := 0; i < gradOps; i++ {
				grad.GetRelationship(ids[i], tss[i])
			}
		}).Seconds() * 20
		return aionT, raphT, gradT, nil
	}

	a1, r1, g1, err := measure(1) // |U| history
	if err != nil {
		return nil, err
	}
	a3, r3, g3, err := measure(3) // 3|U| history
	if err != nil {
		return nil, err
	}

	rows := []Table4Row{
		{System: "Aion", Space: "2|U| + k|G|", RelRetrieval: "log(|U_R|)",
			SnapshotCost: "|G| + delta(|U|)", Persistent: true, MeasuredScale: a3 / a1},
		{System: "Raphtory", Space: "|U|", RelRetrieval: "2|U_R^n|",
			SnapshotCost: "|U|", Persistent: false, MeasuredScale: r3 / r1},
		{System: "Gradoop", Space: "|U|", RelRetrieval: "|U_R|",
			SnapshotCost: "|U|", Persistent: false, MeasuredScale: g3 / g1},
	}
	t := &table{header: []string{"System", "Space", "Rel retrieval", "Snapshot retrieval", "Persistent", "measured 3x-history scale"}}
	for _, r := range rows {
		p := "no"
		if r.Persistent {
			p = "yes"
		}
		t.add(r.System, r.Space, r.RelRetrieval, r.SnapshotCost, p, f2(r.MeasuredScale)+"x")
	}
	t.print(c.Out, fmt.Sprintf("Table 4: storage and retrieval costs (measured on %s)", name))
	return rows, nil
}
