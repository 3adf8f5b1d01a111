package aion

import (
	"context"
	"errors"
	"fmt"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// ErrNoStore is returned when a query needs a store that this instance was
// not configured with (e.g. global queries in lineage-only mode).
var ErrNoStore = errors.New("aion: required temporal store not configured")

// cancelStride is how many items pass between cooperative ctx checks in
// the API-level result-assembly loops; the stores bound their own scans.
const cancelStride = 1024

// Every read takes a ctx first and returns ctx.Err() shortly after it fires.

// StoreChoice identifies which temporal store the planner picked.
type StoreChoice int

const (
	// ChoseLineage means the query ran on the LineageStore.
	ChoseLineage StoreChoice = iota
	// ChoseTimeStore means the query materialized a TimeStore snapshot.
	ChoseTimeStore
)

// String returns the choice name.
func (c StoreChoice) String() string {
	if c == ChoseLineage {
		return "LineageStore"
	}
	return "TimeStore"
}

// lineageAvailable reports whether the LineageStore can serve a query up to
// ts: it exists and has absorbed every update at or before ts. Because the
// cascade is asynchronous, the LineageStore may lag; in that rare case the
// TimeStore serves the query instead (Sec 5.1).
func (db *DB) lineageAvailable(ts model.Timestamp) bool {
	if db.ls == nil {
		return false
	}
	if db.opts.Mode != SyncHybrid {
		return true
	}
	latest := db.ts.LatestTimestamp()
	if ts > latest {
		ts = latest
	}
	return db.ls.AppliedThrough() >= ts
}

// GetNodeContext returns a node's history between the given timestamps
// (Table 1).
func (db *DB) GetNodeContext(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	if db.lineageAvailable(end) {
		db.decided.lineage.Add(1)
		return db.ls.GetNodeContext(ctx, id, start, end)
	}
	db.decided.time.Add(1)
	return db.tsGetNode(ctx, id, start, end)
}

func (db *DB) tsGetNode(ctx context.Context, id model.NodeID, start, end model.Timestamp) ([]*model.Node, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	if start == end {
		g, err := db.ts.GetGraphContext(ctx, start)
		if err != nil {
			return nil, err
		}
		if n := g.Node(id); n != nil {
			return []*model.Node{n}, nil
		}
		return nil, nil
	}
	tg, err := db.ts.GetTemporalGraphContext(ctx, start, end)
	if err != nil {
		return nil, err
	}
	return tg.NodeHistory(id, start, end), nil
}

// GetRelationshipContext returns a relationship's history between the
// given timestamps (Table 1).
func (db *DB) GetRelationshipContext(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	if db.lineageAvailable(end) {
		db.decided.lineage.Add(1)
		return db.ls.GetRelationshipContext(ctx, id, start, end)
	}
	db.decided.time.Add(1)
	return db.tsGetRelationship(ctx, id, start, end)
}

func (db *DB) tsGetRelationship(ctx context.Context, id model.RelID, start, end model.Timestamp) ([]*model.Rel, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	if start == end {
		g, err := db.ts.GetGraphContext(ctx, start)
		if err != nil {
			return nil, err
		}
		if r := g.Rel(id); r != nil {
			return []*model.Rel{r}, nil
		}
		return nil, nil
	}
	tg, err := db.ts.GetTemporalGraphContext(ctx, start, end)
	if err != nil {
		return nil, err
	}
	return tg.RelHistory(id, start, end), nil
}

// GetRelationshipsContext returns a node's (in/out) relationship history
// (Table 1).
func (db *DB) GetRelationshipsContext(ctx context.Context, id model.NodeID, d model.Direction, start, end model.Timestamp) ([][]*model.Rel, error) {
	if db.lineageAvailable(end) {
		db.decided.lineage.Add(1)
		return db.ls.GetRelationshipsContext(ctx, id, d, start, end)
	}
	db.decided.time.Add(1)
	if db.ts == nil {
		return nil, ErrNoStore
	}
	if start == end {
		g, err := db.ts.GetGraphContext(ctx, start)
		if err != nil {
			return nil, err
		}
		var out [][]*model.Rel
		g.Neighbours(id, d, func(r *model.Rel, _ model.NodeID) bool {
			out = append(out, []*model.Rel{r})
			return true
		})
		return out, nil
	}
	tg, err := db.ts.GetTemporalGraphContext(ctx, start, end)
	if err != nil {
		return nil, err
	}
	// Collect per-relationship histories: rels live at the window start
	// plus rels created inside the window whose endpoint matches.
	seen := map[model.RelID]bool{}
	var out [][]*model.Rel
	addRel := func(rid model.RelID) {
		if !seen[rid] {
			seen[rid] = true
			if h := tg.RelHistory(rid, start, end); len(h) > 0 {
				out = append(out, h)
			}
		}
	}
	for i, r := range tg.RelsAt(id, d, start) {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		addRel(r.ID)
	}
	diff, err := db.ts.GetDiffContext(ctx, start+1, end)
	if err != nil {
		return nil, err
	}
	for i, u := range diff {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if u.Kind != model.OpAddRel {
			continue
		}
		switch d {
		case model.Outgoing:
			if u.Src == id {
				addRel(u.RelID)
			}
		case model.Incoming:
			if u.Tgt == id {
				addRel(u.RelID)
			}
		default:
			if u.Src == id || u.Tgt == id {
				addRel(u.RelID)
			}
		}
	}
	return out, nil
}

// PlanExpand returns the store the planner would choose for an n-hop
// expansion, applying the Sec 5.1 heuristic: less than 30 % of the graph
// estimated to be accessed selects the LineageStore.
func (db *DB) PlanExpand(hops int, d model.Direction, ts model.Timestamp) StoreChoice {
	frac := db.stats.EstimateExpandFraction(hops, d)
	if frac < SelectivityThreshold && db.lineageAvailable(ts) {
		return ChoseLineage
	}
	if db.ts == nil {
		return ChoseLineage
	}
	return ChoseTimeStore
}

// ExpandContext returns the n-hop neighbourhood of a node at time ts
// (Table 1, Alg 1), one slice per hop. The planner picks the store by
// estimated cardinality.
func (db *DB) ExpandContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	switch db.PlanExpand(hops, d, ts) {
	case ChoseLineage:
		db.decided.lineage.Add(1)
		return db.ls.ExpandContext(ctx, id, d, hops, ts)
	default:
		db.decided.time.Add(1)
		return db.ExpandViaTimeStoreContext(ctx, id, d, hops, ts)
	}
}

// ExpandViaTimeStoreContext materializes a full snapshot and walks it —
// the TimeStore expansion path whose cost is dominated by graph retrieval
// (Sec 4.3). Exported for the Fig 8 store comparison.
func (db *DB) ExpandViaTimeStoreContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, ts model.Timestamp) ([][]*model.Node, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	g, err := db.ts.GetGraphContext(ctx, ts)
	if err != nil {
		return nil, err
	}
	return ExpandInGraph(g, id, d, hops), nil
}

// ExpandInGraph runs the Alg 1 expansion (per-hop deduplication) over a
// materialized snapshot.
func ExpandInGraph(g *memgraph.Graph, id model.NodeID, d model.Direction, hops int) [][]*model.Node {
	result := make([][]*model.Node, hops)
	queue := []model.NodeID{id}
	for hop := 0; hop < hops; hop++ {
		visited := map[model.NodeID]bool{}
		var next []model.NodeID
		for _, cid := range queue {
			g.Neighbours(cid, d, func(_ *model.Rel, nb model.NodeID) bool {
				if !visited[nb] {
					visited[nb] = true
					if n := g.Node(nb); n != nil {
						result[hop] = append(result[hop], n)
						next = append(next, nb)
					}
				}
				return true
			})
		}
		queue = next
		if len(queue) == 0 {
			break
		}
	}
	return result
}

// ExpandRangeContext runs the n-hop expansion at each materialization step
// in [start, end] (the full Table 1 expand signature with start, end, and
// step): one [][]*model.Node result per step time. ctx is checked before
// each step's expansion.
func (db *DB) ExpandRangeContext(ctx context.Context, id model.NodeID, d model.Direction, hops int, start, end, step model.Timestamp) ([][][]*model.Node, error) {
	if step <= 0 {
		return nil, fmt.Errorf("aion: step must be positive")
	}
	if end < start {
		return nil, fmt.Errorf("aion: end %d before start %d", end, start)
	}
	var out [][][]*model.Node
	for ts := start; ts <= end; ts += step {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := db.ExpandContext(ctx, id, d, hops, ts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ScanGraphsContext lazily materializes the snapshot series (footnote 4's
// lazy variant of getGraph); fn must clone a snapshot to retain it.
func (db *DB) ScanGraphsContext(ctx context.Context, start, end, step model.Timestamp, fn func(g *memgraph.Graph) bool) error {
	if db.ts == nil {
		return ErrNoStore
	}
	return db.ts.ScanGraphsContext(ctx, start, end, step, fn)
}

// GetDiffContext returns all graph updates between two time instances
// (Table 1), enabling incremental execution.
func (db *DB) GetDiffContext(ctx context.Context, start, end model.Timestamp) ([]model.Update, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetDiffContext(ctx, start, end)
}

// GraphAtContext materializes the LPG snapshot at ts.
func (db *DB) GraphAtContext(ctx context.Context, ts model.Timestamp) (*memgraph.Graph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetGraphContext(ctx, ts)
}

// GetGraphContext returns the history of the graph between two timestamps
// as a series of snapshots, one per step (Table 1).
func (db *DB) GetGraphContext(ctx context.Context, start, end, step model.Timestamp) ([]*memgraph.Graph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	if start == end {
		g, err := db.ts.GetGraphContext(ctx, start)
		if err != nil {
			return nil, err
		}
		return []*memgraph.Graph{g}, nil
	}
	return db.ts.GetGraphsContext(ctx, start, end, step)
}

// GetWindowContext filters graph history by a time window (Table 1).
func (db *DB) GetWindowContext(ctx context.Context, start, end model.Timestamp) (*memgraph.Graph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetWindowContext(ctx, start, end)
}

// GetTemporalGraphContext creates a temporal graph over [start, end) (Table
// 1).
func (db *DB) GetTemporalGraphContext(ctx context.Context, start, end model.Timestamp) (*memgraph.TGraph, error) {
	if db.ts == nil {
		return nil, ErrNoStore
	}
	return db.ts.GetTemporalGraphContext(ctx, start, end)
}

// FilterBitemporal applies the application-time filter of Sec 4.5 to
// entities already filtered by system time: a valid (sub)graph is retrieved
// first, then entities whose application-time interval is not contained in
// [appStart, appEnd] are dropped. Entities without application time fall
// back to system time (always kept, since system time already matched).
func FilterBitemporal[E interface{ AppInterval() model.Interval }](es []E, appStart, appEnd model.Timestamp) []E {
	var out []E
	win := model.Interval{Start: appStart, End: appEnd + 1} // CONTAINED IN is closed
	for _, e := range es {
		iv := e.AppInterval()
		if iv.Start == 0 && iv.End == model.TSInfinity {
			out = append(out, e) // no app time set: fall back to system time
			continue
		}
		if iv.Start >= win.Start && iv.End <= win.End {
			out = append(out, e)
		}
	}
	return out
}
