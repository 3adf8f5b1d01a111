package main

import (
	"fmt"
	"math/rand"
	"sort"

	"aion/internal/cypher"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// checkTimestamps is how many distinct read timestamps the answer check
// covers: every lookup and expand read at one of them is checked against
// the TimeStore's snapshot at that timestamp, so the check materializes
// only this many snapshots however long the run.
const checkTimestamps = 8

// maxKeptPerConn bounds the read outcomes one connection keeps for the
// answer check.
const maxKeptPerConn = 4096

// checkSet draws the timestamps whose point reads the answer check covers.
func checkSet(seed int64, clock model.Timestamp) map[int32]bool {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	set := map[int32]bool{}
	for len(set) < checkTimestamps && len(set) < int(clock) {
		set[int32(1+rng.Int63n(int64(clock)))] = true
	}
	return set
}

// expected is everything the answer check compares against, all taken
// from sources independent of the read path under test: the loader's own
// commit counts and TimeStore snapshots.
type expected struct {
	nodesAt, relsAt []int
	// graphAt materializes the TimeStore snapshot at ts.
	graphAt func(ts model.Timestamp) (*memgraph.Graph, error)
}

// checkReads compares kept read outcomes with the expected answers and
// returns one message per mismatch.
func checkReads(kept []outcome, exp expected) ([]string, error) {
	var bad []string
	byTS := map[int32][]outcome{}
	for _, o := range kept {
		switch o.s.cl {
		case clLookup, clExpand:
			byTS[o.s.ts] = append(byTS[o.s.ts], o)
		case clCount:
			if got, want := scalar(o.rows, 0), int64(exp.nodesAt[o.s.ts]); got != want {
				bad = append(bad, fmt.Sprintf("count(*) AS OF %d = %d, loader committed %d nodes", o.s.ts, got, want))
			}
		case clWindow:
			// The history only inserts, so the window [a, a+span) holds
			// every entity created by its last commit.
			last := o.s.ts + windowSpan - 1
			gotN, gotR := scalar(o.rows, 0), scalar(o.rows, 1)
			if wantN, wantR := int64(exp.nodesAt[last]), int64(exp.relsAt[last]); gotN != wantN || gotR != wantR {
				bad = append(bad, fmt.Sprintf("aion.window(%d, %d) = (%d nodes, %d rels), loader committed (%d, %d)",
					o.s.ts, o.s.ts+windowSpan, gotN, gotR, wantN, wantR))
			}
		}
	}
	tss := make([]int32, 0, len(byTS))
	for ts := range byTS {
		tss = append(tss, ts)
	}
	sort.Slice(tss, func(i, j int) bool { return tss[i] < tss[j] })
	for _, ts := range tss {
		g, err := exp.graphAt(model.Timestamp(ts))
		if err != nil {
			return nil, fmt.Errorf("materialize reference snapshot at %d: %w", ts, err)
		}
		for _, o := range byTS[ts] {
			if msg := checkPoint(g, o); msg != "" {
				bad = append(bad, msg)
			}
		}
	}
	return bad, nil
}

// checkPoint compares one lookup or expand answer with the snapshot g.
func checkPoint(g *memgraph.Graph, o outcome) string {
	id := model.NodeID(o.s.id)
	want := g.Node(id)
	switch o.s.cl {
	case clLookup:
		if want == nil {
			if len(o.rows) != 0 {
				return fmt.Sprintf("lookup %d AS OF %d returned %d rows, node absent in snapshot", id, o.s.ts, len(o.rows))
			}
			return ""
		}
		if len(o.rows) != 1 || o.rows[0][0].Node == nil {
			return fmt.Sprintf("lookup %d AS OF %d returned %d rows, want 1 node", id, o.s.ts, len(o.rows))
		}
		got := o.rows[0][0].Node
		if got.ID != want.ID || fmt.Sprint(got.Labels) != fmt.Sprint(want.Labels) || !sameProps(got.Props, want.Props) {
			return fmt.Sprintf("lookup %d AS OF %d returned %v %v %v, snapshot has %v %v %v",
				id, o.s.ts, got.ID, got.Labels, got.Props, want.ID, want.Labels, want.Props)
		}
	case clExpand:
		wantIDs := map[model.NodeID]bool{}
		if want != nil {
			g.Neighbours(id, model.Outgoing, func(_ *model.Rel, nb model.NodeID) bool {
				wantIDs[nb] = true
				return true
			})
		}
		gotIDs := map[model.NodeID]bool{}
		for _, row := range o.rows {
			if n := row[0].Node; n != nil {
				gotIDs[n.ID] = true
			}
		}
		if len(gotIDs) != len(o.rows) || len(gotIDs) != len(wantIDs) {
			return fmt.Sprintf("expand %d AS OF %d returned %d rows (%d distinct), snapshot has %d neighbours",
				id, o.s.ts, len(o.rows), len(gotIDs), len(wantIDs))
		}
		for nb := range wantIDs {
			if !gotIDs[nb] {
				return fmt.Sprintf("expand %d AS OF %d is missing neighbour %d", id, o.s.ts, nb)
			}
		}
	}
	return ""
}

func sameProps(a, b model.Properties) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v.Compare(w) != 0 {
			return false
		}
	}
	return true
}

// scalar returns column col of a single-row scalar answer, or -1.
func scalar(rows [][]cypher.Val, col int) int64 {
	if len(rows) != 1 || len(rows[0]) <= col {
		return -1
	}
	return rows[0][col].S.Int()
}

// checkWrites verifies that every acknowledged CREATE and, per node, the
// last acknowledged SET (by commit timestamp) are visible in g, a graph at
// the latest timestamp.
func checkWrites(kept []outcome, g *memgraph.Graph, where string) []string {
	created := map[int64]bool{}
	g.ForEachNode(func(n *model.Node) bool {
		if n.HasLabel("Client") {
			created[n.Props["w"].Int()] = true
		}
		return true
	})
	lastSet := map[int32]outcome{}
	var bad []string
	for _, o := range kept {
		switch o.s.cl {
		case clCreate:
			if !created[o.val] {
				bad = append(bad, fmt.Sprintf("%s: acknowledged CREATE w=%d is not visible", where, o.val))
			}
		case clSet:
			if prev, ok := lastSet[o.s.id]; !ok || o.sum.CommitTS > prev.sum.CommitTS {
				lastSet[o.s.id] = o
			}
		}
	}
	for id, o := range lastSet {
		n := g.Node(model.NodeID(id))
		if n == nil || n.Props["touched"].Int() != o.val {
			bad = append(bad, fmt.Sprintf("%s: node %d does not carry its last acknowledged SET touched=%d", where, id, o.val))
		}
	}
	return bad
}
