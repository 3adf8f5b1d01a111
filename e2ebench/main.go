// Command e2ebench is the repository's end-to-end benchmark. It loads a
// seeded LiveJournal-shaped history into the host with Aion attached,
// serves it over Bolt in process, drives one named workload from closed-loop
// Bolt connections, checks the answers, and prints its metrics. With
// -trace 1 it also sends a seeded sample of the statements down a ladder of
// in-process layer calls and prints per-layer metrics instead.
//
//	go run . -workload lookup -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// report, inputs included. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the benchmark's inputs; every one is recorded in the report.
type options struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Scale    int     `json:"scale"`  // LiveJournal preset divisor: 200 gives 24 000 nodes
	Setups   int     `json:"setups"` // set-ups per run; setup_s is their median
	Conns    int     `json:"connections"`
	Dir      string  `json:"-"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: lookup, readwrite or snapshot")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for the statement streams")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.Dir, "dir", ".bench_build", "directory for the stores (deleted after the run) and span files")
	flag.Parse()
	o.Trace = trace == 1
	o.Scale, o.Setups, o.Conns = 200, 2, 2
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.Seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"report": res.report}); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res.line()); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		fmt.Fprintln(os.Stderr, "e2ebench: answer check failed; see report.mismatches")
		os.Exit(1)
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	// headline holds the metrics of the last output line: the end-to-end
	// set untraced, the per-layer set traced.
	headline map[string]metric
	report   *report
}

func (r *result) correct() bool { return r.failed == 0 }

func (r *result) line() map[string]any {
	return map[string]any{"correct": r.correct(), "attempted": r.attempted,
		"failed": r.failed, "metrics": r.headline}
}

// run executes one benchmark run in a fresh directory under o.Dir and
// removes the directory afterwards.
func run(o options) (res *result, err error) {
	w, err := findWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.Dir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(root); rerr != nil && err == nil {
			err = rerr
		}
	}()
	l, timings, err := setupRepeated(root, o.Setups, o.Scale)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, l.close()) }()
	spans := ""
	if o.Trace {
		spans = filepath.Join(o.Dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.Workload, o.Seed))
	}
	return measure(o, w, l, timings, spans)
}
