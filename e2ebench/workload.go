package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/model"
)

// class is one kind of statement a workload sends.
type class uint8

const (
	clLookup class = iota // AS OF point lookup of one node
	clExpand              // AS OF one-hop outgoing expansion of one node
	clCreate              // blind CREATE of a new node
	clSet                 // MATCH-by-id SET of one property
	clCount               // AS OF count(*) over the whole graph
	clWindow              // aion.window over ten commits
	numClasses
)

var classNames = [numClasses]string{"lookup", "expand", "create", "set", "count", "window"}

func (c class) String() string { return classNames[c] }

func (c class) isWrite() bool { return c == clCreate || c == clSet }

// queries holds each class's statement text; only parameters vary.
var queries = [numClasses]string{
	clLookup: `USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) WHERE id(n) = $id RETURN n`,
	clExpand: `USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n)-[*1]->(m) WHERE id(n) = $id RETURN m`,
	clCreate: `CREATE (n:Client {w: $w})`,
	clSet:    `MATCH (n) WHERE id(n) = $id SET n.touched = $i`,
	clCount:  `USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) RETURN count(*)`,
	clWindow: `CALL aion.window($a, $a + 10)`,
}

// windowSpan is the number of commits an aion.window statement covers.
const windowSpan = 10

// share is one class's percentage of a workload's statements.
type share struct {
	cl  class
	pct int
}

// workload is a named statement mix.
type workload struct {
	name string
	// mixes holds each connection's class percentages, summing to 100;
	// connection i sends mixes[i % len(mixes)].
	mixes [][]share
	// main and side are the classes behind the main_p50_us and
	// side_p50_us metrics.
	main, side []class
	// traceEvery sends every traceEvery-th read statement down the
	// in-process ladder in a traced run; the snapshot classes cost
	// milliseconds each, so they are sampled more densely to get enough
	// spans from a short run.
	traceEvery int
}

var workloads = []workload{
	{name: "lookup", mixes: [][]share{{{clLookup, 80}, {clExpand, 20}}},
		main: []class{clLookup}, side: []class{clExpand}, traceEvery: 16},
	// Commits are not fsynced. With per-commit fsync on the shared disk
	// of a small VM, the write latency of a run swung with the disk, not
	// the program: write p50 421-624 us and mean 557-1031 us over four
	// runs of the same code, and statements per second spread by 0.32.
	{name: "readwrite", mixes: [][]share{{{clLookup, 64}, {clExpand, 16}, {clCreate, 10}, {clSet, 10}}},
		main: []class{clLookup}, side: []class{clCreate, clSet}, traceEvery: 16},
	// Each snapshot connection sends one class, so every count(*) runs
	// beside a window on the other connection. With both classes mixed on
	// both connections, a count's latency depended mostly on whether the
	// other connection was mid-window and where the garbage collector
	// stood, and a run's few dozen counts could not settle a median.
	{name: "snapshot", mixes: [][]share{{{clCount, 100}}, {{clWindow, 100}}},
		main: []class{clCount}, side: []class{clWindow}, traceEvery: 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mix returns connection i's class percentages.
func (w workload) mix(i int) []share { return w.mixes[i%len(w.mixes)] }

// has reports whether any connection sends statements of class c.
func (w workload) has(c class) bool {
	for _, mix := range w.mixes {
		for _, s := range mix {
			if s.cl == c {
				return true
			}
		}
	}
	return false
}

// stmt is one generated statement. Writes carry no values: the value a
// write stores is derived from the connection and the statement's position
// in the stream, so every acknowledged write is distinguishable.
type stmt struct {
	cl class
	id int32 // node id (lookup, expand, set)
	ts int32 // read timestamp (lookup, expand, count) or window start
}

// generate draws n statements of a connection's mix. Node ids are uniform over the
// dataset's id domain. Classes and read timestamps follow golden-ratio
// sequences from seeded starts: the class sequence yields each class at
// its share of the mix, and each class's timestamps are uniform over
// [1, clock], the commits the load made, like independent draws; but
// every prefix of such a sequence also spreads evenly over its range. A
// snapshot statement's cost grows with its timestamp, so independent
// draws would leave a run of a few dozen of them at the mercy of which
// timestamps and classes it happened to draw. Each class's timestamps
// also come in mirrored pairs, t then span+1-t, so every even-length
// prefix is symmetric about the middle of the range: a window's cost
// grows almost linearly with its start, and a 20 s run completes only
// about thirty. A window starts early enough to end by clock.
func generate(mix []share, rng *rand.Rand, n, nodes int, clock model.Timestamp) []stmt {
	var (
		u     [numClasses]float64
		last  [numClasses]int64
		drawn [numClasses]int
	)
	for c := range u {
		u[c] = rng.Float64()
	}
	next := func(x *float64) float64 {
		*x = math.Mod(*x+invPhi, 1)
		return *x
	}
	draw := func(c class, span int64) int32 {
		if drawn[c]++; drawn[c]%2 == 0 {
			return int32(span + 1 - last[c])
		}
		last[c] = 1 + int64(next(&u[c])*float64(span))
		return int32(last[c])
	}
	mixU := rng.Float64()
	out := make([]stmt, n)
	for i := range out {
		r := int(next(&mixU) * 100)
		cl := mix[len(mix)-1].cl
		for _, s := range mix {
			if r < s.pct {
				cl = s.cl
				break
			}
			r -= s.pct
		}
		s := stmt{cl: cl}
		switch cl {
		case clLookup, clExpand, clCount:
			s.ts = draw(cl, int64(clock))
		case clWindow:
			s.ts = draw(cl, int64(clock)-windowSpan+1)
		}
		if cl == clLookup || cl == clExpand || cl == clSet {
			s.id = int32(rng.Intn(nodes))
		}
		out[i] = s
	}
	return out
}

// invPhi is the golden ratio's inverse, the step of every sequence above.
var invPhi = (math.Sqrt(5) - 1) / 2

// guardTimestamps rejects any read timestamp outside [1, clock]. A read
// above the host clock is silently clamped to the latest version, which
// turns a time-travel workload into a latest-version one; the guard runs
// before measuring so such a run is never recorded.
func guardTimestamps(stmts []stmt, clock model.Timestamp) error {
	for i, s := range stmts {
		hi := int64(s.ts)
		if s.cl == clWindow {
			hi += windowSpan - 1 // the window [a, a+span) is half-open
		}
		switch s.cl {
		case clLookup, clExpand, clCount, clWindow:
			if s.ts < 1 || hi > int64(clock) {
				return fmt.Errorf("statement %d (%s) reads timestamp %d, outside [1, %d] committed by the load", i, s.cl, hi, clock)
			}
		}
	}
	return nil
}

// writeValue is the value statement seq on connection conn writes: unique
// across the run, so the check can tell every acknowledged write apart.
func writeValue(conn, seq int) int64 { return int64(conn)<<40 | int64(seq) }

// params builds the statement's parameters.
func (s stmt) params(conn, seq int) map[string]model.Value {
	switch s.cl {
	case clLookup, clExpand:
		return map[string]model.Value{"ts": model.IntValue(int64(s.ts)), "id": model.IntValue(int64(s.id))}
	case clCount:
		return map[string]model.Value{"ts": model.IntValue(int64(s.ts))}
	case clWindow:
		return map[string]model.Value{"a": model.IntValue(int64(s.ts))}
	case clCreate:
		return map[string]model.Value{"w": model.IntValue(writeValue(conn, seq))}
	case clSet:
		return map[string]model.Value{"id": model.IntValue(int64(s.id)), "i": model.IntValue(writeValue(conn, seq))}
	}
	return nil
}

// outcome is one executed statement kept for the answer check.
type outcome struct {
	s    stmt
	rows [][]cypher.Val
	sum  *bolt.Summary
	val  int64 // written value (create, set)
}

// connLog is what one connection recorded during a measured phase.
type connLog struct {
	lat      [numClasses][]time.Duration
	busy     time.Duration // from the phase start to this connection's last reply
	attempts int
	failed   int
	errs     []string  // first few failure messages
	kept     []outcome // outcomes the answer check examines
	keptRead int       // read outcomes among kept
	spans    []span    // traced phase only
	ladders  int       // traced statements
	ladderEr []string  // failures inside the in-process ladder
}

const maxErrs = 5

func (c *connLog) fail(err error) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, err.Error())
	}
}
