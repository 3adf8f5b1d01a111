package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/graphstore"
	"aion/internal/hostdb"
	"aion/internal/lineagestore"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/timestore"
)

const (
	// warmup is the read-only pass before measuring, so page caches and
	// lazily built state are warm when timing starts.
	warmup = time.Second
	// maxRate bounds statements per second per connection; each
	// connection's statement stream is sized from it so it never wraps.
	maxRate = 40000
	// lineageCacheBytes is the LineageStore's page-cache budget at its
	// defaults: four B+Trees of 1024 pages each.
	lineageCacheBytes = 4 * 1024 * pagecache.PageSize
	// graphStoreBytes is the TimeStore's snapshot-cache budget at its
	// default.
	graphStoreBytes = 256 << 20
	mib             = 1 << 20
)

// report is the full record of a run: its inputs, every metric it
// measured, and anything the answer check found.
type report struct {
	Inputs     inputs            `json:"inputs"`
	Metrics    map[string]metric `json:"metrics"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Samples    map[string]int    `json:"samples"`
	SetupRuns  []setupRun        `json:"setup_runs"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Errors     []string          `json:"errors,omitempty"`
	SpansFile  string            `json:"spans_file,omitempty"`
}

// setupRun is one set-up's timings in seconds.
type setupRun struct {
	Setup    float64 `json:"setup_s"`
	Load     float64 `json:"load_s"`
	WaitSync float64 `json:"waitsync_s"`
}

// inputs is everything needed to reproduce a run.
type inputs struct {
	options
	Dataset          string           `json:"dataset"`
	DatasetSeed      int64            `json:"dataset_seed"`
	Nodes            int              `json:"nodes"`
	Rels             int              `json:"rels"`
	Updates          int              `json:"updates"`
	LoadCommits      int              `json:"load_commits"`
	UpdatesPerCommit int              `json:"updates_per_commit"`
	ReadTSRange      [2]int64         `json:"read_ts_range"`
	Mix              []map[string]int `json:"mix_pct_per_connection"`
	AionMode         string           `json:"aion_mode"`
	SnapshotEveryOps int              `json:"snapshot_every_ops"`
	SyncCommits      bool             `json:"sync_commits"`
	LineageIndexMB   float64          `json:"lineage_index_mb"`
	LineageCacheMB   float64          `json:"lineage_page_cache_mb"`
	GraphStoreMB     float64          `json:"graphstore_budget_mb"`
	TraceEvery       int              `json:"trace_every,omitempty"`
	CheckTimestamps  []int32          `json:"check_timestamps"`
}

// counters is a snapshot of every counter the layers export, taken around
// a measured phase.
type counters struct {
	bolt              bolt.Metrics
	host              hostdb.Stats
	ts                timestore.Stats
	gs                graphstore.Stats
	ls                lineagestore.Stats
	lineage, timeOnly int64
	alloc             uint64
	gcCPU, totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// fallbackFrac is the share of planner decisions between two snapshots
// that went to the TimeStore.
func fallbackFrac(before, after counters) float64 {
	ts := float64(after.timeOnly - before.timeOnly)
	return ratio(ts, ts+float64(after.lineage-before.lineage))
}

func snapshotCounters(l *loaded, srv *bolt.Server) counters {
	c := counters{bolt: srv.Metrics(), host: l.sys.Host.Stats(), ts: l.sys.Aion.TimeStore().Stats(),
		gs: l.sys.Aion.TimeStore().GraphStore().Stats(), ls: l.sys.Aion.LineageStore().Stats()}
	c.lineage, c.timeOnly = l.sys.Aion.PlannerDecisions()
	metrics.Read(runtimeSamples)
	c.alloc = runtimeSamples[0].Value.Uint64()
	c.gcCPU = runtimeSamples[1].Value.Float64()
	c.totalCPU = runtimeSamples[2].Value.Float64()
	return c
}

// lagSampler samples the LineageStore cascade lag behind the TimeStore
// every few milliseconds until stopped.
type lagSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	sum  float64
	n    int
}

func startLagSampler(l *loaded) *lagSampler {
	s := &lagSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				lag := l.sys.Aion.LatestTimestamp() - l.sys.Aion.LineageStore().AppliedThrough()
				s.sum += float64(lag)
				s.n++
			}
		}
	}()
	return s
}

// mean stops the sampler and returns the mean lag in timestamps.
func (s *lagSampler) mean() float64 {
	close(s.stop)
	s.done.Wait()
	return ratio(s.sum, float64(s.n))
}

// measure serves the loaded system over Bolt, drives the workload, checks
// the answers and computes the metrics.
func measure(o options, w workload, l *loaded, timings []setupTiming, spansPath string) (*result, error) {
	// The footprint of the loaded history, taken before serving: after the
	// run it would also count what readwrite wrote, which grows with its
	// throughput.
	disk := l.diskBytes()
	eng := cypher.NewEngine(l.sys)
	srv := bolt.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	rep := &report{Metrics: map[string]metric{}, Samples: map[string]int{}}
	checkTS := checkSet(o.Seed, l.clock)
	rep.Inputs = inputs{options: o, Dataset: fmt.Sprintf("LiveJournal/%d", o.Scale), DatasetSeed: datasetSeed,
		Nodes: l.spec.Nodes, Rels: l.spec.Rels, Updates: l.updates, LoadCommits: int(l.clock),
		UpdatesPerCommit: loadBatch, ReadTSRange: [2]int64{1, int64(l.clock)},
		AionMode: "hybrid", SnapshotEveryOps: l.updates/8 + 1, SyncCommits: false,
		LineageIndexMB: float64(l.sys.Aion.LineageStore().Stats().IndexBytes) / mib,
		LineageCacheMB: lineageCacheBytes / mib, GraphStoreMB: graphStoreBytes / mib}
	for i := 0; i < o.Conns; i++ {
		m := map[string]int{}
		for _, s := range w.mix(i) {
			m[s.cl.String()] = s.pct
		}
		rep.Inputs.Mix = append(rep.Inputs.Mix, m)
	}
	for _, t := range timings {
		rep.SetupRuns = append(rep.SetupRuns, setupRun{t.setup.Seconds(), t.load.Seconds(), t.waitSync.Seconds()})
	}
	for ts := range checkTS {
		rep.Inputs.CheckTimestamps = append(rep.Inputs.CheckTimestamps, ts)
	}
	sort.Slice(rep.Inputs.CheckTimestamps, func(i, j int) bool {
		return rep.Inputs.CheckTimestamps[i] < rep.Inputs.CheckTimestamps[j]
	})

	// Statements: one seeded stream per connection for the measured
	// phases and one for the warm-up, all generated and guarded before
	// anything is timed.
	perConn := int(o.Seconds*maxRate) + 1024
	conns := make([]*conn, o.Conns)
	warm := make([]*conn, o.Conns)
	for i := range conns {
		cl, err := bolt.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		conns[i] = &conn{idx: i, cl: cl,
			stream: generate(w.mix(i), rand.New(rand.NewSource(o.Seed*1_000_003+int64(i))), perConn, l.spec.Nodes, l.clock)}
		warm[i] = &conn{idx: i, cl: cl,
			stream: generate(w.mix(i), rand.New(rand.NewSource(-o.Seed*1_000_003-int64(i)-1)), 4096, l.spec.Nodes, l.clock)}
		for _, c := range []*conn{conns[i], warm[i]} {
			if err := guardTimestamps(c.stream, l.clock); err != nil {
				return nil, fmt.Errorf("timestamp guard: %w", err)
			}
		}
	}
	// Write back the set-ups' dirty pages, so the kernel's writeback does
	// not compete with the measured phase, and collect their garbage, so
	// every run starts measuring from the same heap.
	syscall.Sync()
	runtime.GC()
	phase{dur: warmup, readsOnly: true}.run(warm)

	keep := func(s stmt) bool {
		switch s.cl {
		case clLookup, clExpand:
			return checkTS[s.ts]
		}
		return true
	}
	dur := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		dur /= 2
	}
	var lag *lagSampler
	if o.Trace {
		lag = startLagSampler(l)
	}
	before := snapshotCounters(l, srv)
	logs := phase{dur: dur, keep: keep}.run(conns)
	after := snapshotCounters(l, srv)
	var meanLag float64
	if lag != nil {
		meanLag = lag.mean()
	}
	var traced []*connLog
	if o.Trace {
		rep.Inputs.TraceEvery = w.traceEvery
		lad := &ladder{eng: eng, db: l.sys.Aion, epoch: time.Now()}
		traced = phase{dur: dur, keep: keep, lad: lad, traceEvery: w.traceEvery}.run(conns)
	}

	// Answer check, untimed.
	all := append(append([]*connLog(nil), logs...), traced...)
	var kept []outcome
	res := &result{report: rep}
	for _, lg := range all {
		kept = append(kept, lg.kept...)
		res.attempted += lg.attempts
		res.failed += lg.failed
		rep.Errors = append(rep.Errors, lg.errs...)
		rep.Errors = append(rep.Errors, lg.ladderEr...)
	}
	ctx := context.Background()
	bad, err := checkReads(kept, expected{nodesAt: l.nodesAt, relsAt: l.relsAt,
		graphAt: func(ts model.Timestamp) (*memgraph.Graph, error) {
			return l.sys.Aion.TimeStore().GetGraphContext(ctx, ts)
		}})
	if err != nil {
		return nil, err
	}
	if w.has(clCreate) || w.has(clSet) {
		if err := l.sys.Aion.WaitSync(); err != nil {
			return nil, err
		}
		l.sys.Host.View(func(g *memgraph.Graph) { bad = append(bad, checkWrites(kept, g, "host")...) })
		g, err := l.sys.Aion.GraphAtContext(ctx, l.sys.Aion.LatestTimestamp())
		if err != nil {
			return nil, err
		}
		bad = append(bad, checkWrites(kept, g, "aion")...)
	}
	res.failed += len(bad)
	rep.Mismatches = bad
	if f := fallbackFrac(before, after); w.name == "lookup" && f != 0 {
		return nil, fmt.Errorf("timestamp guard: %.4f of lookup reads fell back to the TimeStore", f)
	}

	// End-to-end metrics.
	lat := mergeLatencies(logs)
	ok := completed(logs)
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	e2e := map[string]metric{
		"setup_s":     {median(timings, func(t setupTiming) float64 { return t.setup.Seconds() }), "s"},
		"ops_per_s":   {throughput(logs), "1/s"},
		"peak_rss_mb": {float64(peak) / mib, "MiB"},
		"disk_mb":     {float64(disk) / mib, "MiB"},
	}
	e2e["main_p50_us"] = metric{median(lat.of(w.main...), micros), "us"}
	e2e["side_p50_us"] = metric{median(lat.of(w.side...), micros), "us"}
	for k, v := range e2e {
		rep.Metrics[k] = v
	}
	rep.Metrics["failed_frac"] = metric{ratio(float64(res.failed), float64(res.attempted)), "frac"}
	rep.Metrics["load_ups"] = metric{median(timings, func(t setupTiming) float64 { return float64(l.updates) / t.load.Seconds() }), "1/s"}
	for _, c := range []struct {
		name    string
		classes []class
		unit    string
		tail    float64
	}{
		{"lookup", []class{clLookup}, "us", 0.99},
		{"expand", []class{clExpand}, "us", 0.99},
		{"write", []class{clCreate, clSet}, "us", 0.99},
		{"snapshot", []class{clCount}, "ms", 0.90},
		{"window", []class{clWindow}, "ms", 0.90},
	} {
		d := lat.of(c.classes...)
		if len(d) == 0 {
			continue
		}
		rep.Samples[c.name] = len(d)
		scale := micros
		if c.unit == "ms" {
			scale = millis
		}
		rep.Metrics[c.name+"_p50_"+c.unit] = metric{scale(percentile(d, 0.5)), c.unit}
		// A percentile is reported only with at least ten samples beyond it.
		if float64(len(d))*(1-c.tail) >= 10 {
			name := fmt.Sprintf("%s_p%d_%s", c.name, int(math.Round(c.tail*100)), c.unit)
			rep.Metrics[name] = metric{scale(percentile(d, c.tail)), c.unit}
		}
	}
	res.headline = e2e
	if !o.Trace {
		return res, nil
	}

	// Per-layer metrics.
	var spans []span
	for _, lg := range traced {
		spans = append(spans, lg.spans...)
	}
	st := analyze(spans)
	for name, d := range st.dur {
		rep.Samples["span."+name] = len(d)
	}
	d := func(name, unit string) metric {
		if unit == "ms" {
			return metric{millis(percentile(st.dur[name], 0.5)), unit}
		}
		return metric{micros(percentile(st.dur[name], 0.5)), unit}
	}
	self := func(name string) metric { return metric{micros(percentile(st.self[name], 0.5)), "us"} }
	delta := func(a, b uint64) float64 { return float64(a - b) }
	readQueries := float64(len(lat.of(clCount, clWindow)))
	var commitMs []time.Duration
	for _, t := range timings {
		commitMs = append(commitMs, t.commitTime...)
	}
	lay := map[string]metric{
		"bolt.wire_self_us":            self("bolt.Run"),
		"bolt.shed":                    {delta(after.bolt.Shed, before.bolt.Shed), "count"},
		"bolt.timeouts":                {delta(after.bolt.Timeouts, before.bolt.Timeouts), "count"},
		"cypher.parse_us":              d("cypher.Parse", "us"),
		"cypher.exec_self_us":          self("cypher.Exec"),
		"aion.getnode_us":              d("aion.GetNode", "us"),
		"aion.expand_us":               d("aion.Expand", "us"),
		"aion.graphat_ms":              d("aion.GraphAt", "ms"),
		"aion.window_ms":               d("aion.GetWindow", "ms"),
		"aion.fallback_frac":           {fallbackFrac(before, after), "frac"},
		"aion.cascade_lag_ts":          {meanLag, "ts"},
		"aion.waitsync_ms":             {median(timings, func(t setupTiming) float64 { return millis(t.waitSync) }), "ms"},
		"lineagestore.getnode_us":      d("lineagestore.GetNode", "us"),
		"lineagestore.expand_us":       d("lineagestore.Expand", "us"),
		"lineagestore.updates":         {delta(after.ls.Updates, before.ls.Updates), "count"},
		"lineagestore.index_mb":        {float64(after.ls.IndexBytes) / mib, "MiB"},
		"lineagestore.index_to_cache":  {float64(after.ls.IndexBytes) / lineageCacheBytes, "x"},
		"timestore.getgraph_ms":        d("timestore.GetGraph", "ms"),
		"timestore.getwindow_ms":       d("timestore.GetWindow", "ms"),
		"timestore.replayed_per_query": {ratio(delta(after.ts.ReplayedUpdates, before.ts.ReplayedUpdates), math.Max(1, readQueries)), "count"},
		"timestore.snapshots":          {float64(after.ts.Snapshots), "count"},
		"timestore.log_mb":             {float64(after.ts.LogBytes) / mib, "MiB"},
		"graphstore.hit_frac":          {ratio(delta(after.gs.Hits, before.gs.Hits), delta(after.gs.Hits+after.gs.Misses, before.gs.Hits+before.gs.Misses)), "frac"},
		"graphstore.evictions":         {delta(after.gs.Evictions, before.gs.Evictions), "count"},
		"hostdb.fsyncs_per_commit":     {ratio(float64(after.host.Fsyncs-before.host.Fsyncs), float64(after.host.Commits-before.host.Commits)), "count"},
		"hostdb.mean_batch":            {ratio(float64(after.host.Commits-before.host.Commits), float64(after.host.Batches-before.host.Batches)), "count"},
		"hostdb.conflicts":             {float64(after.host.Conflicts - before.host.Conflicts), "count"},
		"hostdb.load_commit_ms":        {millis(percentile(commitMs, 0.5)), "ms"},
		"go.alloc_bytes_per_op":        {ratio(delta(after.alloc, before.alloc), float64(ok)), "B"},
		"go.gc_cpu_frac":               {ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "frac"},
		"trace.overhead_ops_per_s":     {throughput(traced) - throughput(logs), "1/s"},
	}
	rep.PerLayer = lay
	res.headline = lay
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	rep.SpansFile = spansPath
	return res, nil
}

// completed counts the statements that succeeded.
func completed(logs []*connLog) int {
	n := 0
	for _, lg := range logs {
		n += lg.attempts - lg.failed
	}
	return n
}

// throughput is statements completed per second, summed over the closed-loop
// connections, each over its own time to its last reply: a connection
// still finishing a long statement at the deadline does not dilute the
// others' rate.
func throughput(logs []*connLog) float64 {
	var r float64
	for _, lg := range logs {
		r += ratio(float64(lg.attempts-lg.failed), lg.busy.Seconds())
	}
	return r
}

// latencies holds per-class statement latencies.
type latencies [numClasses][]time.Duration

func mergeLatencies(logs []*connLog) *latencies {
	var l latencies
	for _, lg := range logs {
		for c := range lg.lat {
			l[c] = append(l[c], lg.lat[c]...)
		}
	}
	return &l
}

// of returns the latencies of the given classes together.
func (l *latencies) of(cs ...class) []time.Duration {
	var out []time.Duration
	for _, c := range cs {
		out = append(out, l[c]...)
	}
	return out
}

// percentile is the nearest-rank q-quantile of d; 0 when d is empty.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}
