package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aion/internal/model"
)

// tiny is a run small enough for a unit test: LiveJournal at scale 2000
// (2 400 nodes) and half a second of measurement.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{Workload: workload, Seed: 7, Seconds: 0.5, Trace: trace,
		Scale: 2000, Setups: 1, Conns: 2, Dir: t.TempDir()}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for the last output line.
func benchmarkMetrics(t *testing.T) (e2e, perLayer map[string]string) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// TestTinyRuns runs every workload untraced and traced at a tiny scale
// and checks that each prints exactly the metrics BENCHMARK.json declares,
// with their units, plus the class metrics its mix produces in the report.
func TestTinyRuns(t *testing.T) {
	e2e, perLayer := benchmarkMetrics(t)
	classMetrics := map[string][]string{
		"lookup":    {"lookup_p50_us", "expand_p50_us"},
		"readwrite": {"lookup_p50_us", "expand_p50_us", "write_p50_us"},
		"snapshot":  {"snapshot_p50_ms", "window_p50_ms"},
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d: %v %v", w.name, trace,
					res.attempted, res.failed, res.report.Errors, res.report.Mismatches)
			}
			if trace {
				sameMetrics(t, w.name+" traced", res.headline, perLayer)
				if _, err := os.Stat(res.report.SpansFile); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
				continue
			}
			sameMetrics(t, w.name, res.headline, e2e)
			for name, m := range res.headline {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			for _, name := range classMetrics[w.name] {
				if m, ok := res.report.Metrics[name]; !ok || !strings.HasSuffix(name, "_"+m.Unit) {
					t.Errorf("%s: report lacks %s or gives it the wrong unit: %+v", w.name, name, m)
				}
			}
			if m := res.report.Metrics["failed_frac"]; m.Unit != "frac" || m.Value != 0 {
				t.Errorf("%s: failed_frac = %+v, want 0 frac", w.name, m)
			}
		}
	}
}

// TestWrongExpectationCountsAsFailure corrupts the loader's committed node
// counts, the reference every count(*) answer is checked against, and
// expects each count(*) and window answer to be counted in failed_frac.
func TestWrongExpectationCountsAsFailure(t *testing.T) {
	o := tiny(t, "snapshot", false)
	w, err := findWorkload(o.Workload)
	if err != nil {
		t.Fatal(err)
	}
	l, timings, err := setupRepeated(o.Dir, 1, o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	for i := range l.nodesAt {
		l.nodesAt[i]++
	}
	res, err := measure(o, w, l, timings, "")
	if err != nil {
		t.Fatal(err)
	}
	// Window answers are checked against the same counts.
	counts := res.report.Samples["snapshot"] + res.report.Samples["window"]
	if counts == 0 {
		t.Fatal("no count(*) or window statement ran")
	}
	if res.correct() || res.failed != counts {
		t.Errorf("failed = %d, want one per count(*) and window statement (%d)", res.failed, counts)
	}
	if got, want := res.report.Metrics["failed_frac"].Value, float64(counts)/float64(res.attempted); got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
}

// TestTimestampGuard checks that a read above the host clock is rejected.
func TestTimestampGuard(t *testing.T) {
	const clock = model.Timestamp(100)
	for _, tc := range []struct {
		s  stmt
		ok bool
	}{
		{stmt{cl: clLookup, ts: 100}, true},
		{stmt{cl: clLookup, ts: 101}, false},
		{stmt{cl: clExpand, ts: 0}, false},
		{stmt{cl: clCount, ts: 101}, false},
		{stmt{cl: clWindow, ts: 100 - windowSpan + 1}, true},
		{stmt{cl: clWindow, ts: 100 - windowSpan + 2}, false},
		{stmt{cl: clCreate}, true},
	} {
		err := guardTimestamps([]stmt{tc.s}, clock)
		if (err == nil) != tc.ok {
			t.Errorf("%s at %d: err = %v, want ok=%v", tc.s.cl, tc.s.ts, err, tc.ok)
		}
	}
	for _, w := range workloads {
		for i := range w.mixes {
			if err := guardTimestamps(generate(w.mix(i), rand.New(rand.NewSource(1)), 10000, 50, clock), clock); err != nil {
				t.Errorf("%s: generated statement rejected: %v", w.name, err)
			}
		}
	}
}
