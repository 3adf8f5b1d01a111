package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"aion/internal/aion"
	"aion/internal/datagen"
	"aion/internal/hostdb"
	"aion/internal/model"
	"aion/internal/system"
)

// loadBatch is the number of dataset updates committed per host
// transaction during the load.
const loadBatch = 2000

// loaded is a host+Aion system after the load, together with what the
// loader itself committed: the benchmark checks answers against these
// counts, not against anything the system reports.
type loaded struct {
	sys  *system.System
	dir  string
	spec datagen.Spec
	// updates is the number of dataset updates committed.
	updates int
	// nodesAt[ts] and relsAt[ts] are the live node and relationship counts
	// after commit ts (index 0 is the empty graph before the first commit).
	nodesAt, relsAt []int
	// clock is Host.Clock() after the load: the newest timestamp a read
	// may ask for.
	clock model.Timestamp

	timing setupTiming
}

// setupTiming is what one set-up measured.
type setupTiming struct {
	setup      time.Duration   // dataset generation through CreateSnapshot
	load       time.Duration   // first Host.Run through WaitSync
	waitSync   time.Duration   // WaitSync alone
	commitTime []time.Duration // Host.Run per load batch
}

// datasetSeed seeds the generated history. It is fixed, so every run loads
// the same graph and the workload seed varies only the statements.
const datasetSeed = 1

// setup generates the dataset, loads it through the host with Aion
// attached in hybrid mode, waits for the LineageStore cascade, and takes
// one snapshot, so no snapshot policy fires during the measured phase.
func setup(dir string, scale int) (*loaded, error) {
	start := time.Now()
	spec := datagen.MustPreset("LiveJournal", scale)
	ds := datagen.Generate(spec, datagen.Options{Seed: datasetSeed})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sys, err := system.Open(system.Options{
		Dir:  dir,
		Aion: aion.Options{Mode: aion.SyncHybrid, SnapshotEveryOps: len(ds.Updates)/8 + 1},
	})
	if err != nil {
		return nil, err
	}
	l := &loaded{sys: sys, dir: dir, spec: spec, updates: len(ds.Updates),
		nodesAt: []int{0}, relsAt: []int{0}}
	fail := func(err error) (*loaded, error) {
		sys.Close()
		return nil, err
	}
	loadStart := time.Now()
	nodes, rels := 0, 0
	for lo := 0; lo < len(ds.Updates); lo += loadBatch {
		batch := ds.Updates[lo:min(lo+loadBatch, len(ds.Updates))]
		t0 := time.Now()
		ts, err := sys.Host.Run(func(tx *hostdb.Tx) error {
			for _, u := range batch {
				if err := applyUpdate(tx, u); err != nil {
					return err
				}
			}
			return nil
		})
		l.timing.commitTime = append(l.timing.commitTime, time.Since(t0))
		if err != nil {
			return fail(fmt.Errorf("load batch at update %d: %w", lo, err))
		}
		for _, u := range batch {
			switch u.Kind {
			case model.OpAddNode:
				nodes++
			case model.OpAddRel:
				rels++
			}
		}
		if int(ts) != len(l.nodesAt) {
			return fail(fmt.Errorf("load batch at update %d committed at ts %d, want %d", lo, ts, len(l.nodesAt)))
		}
		l.nodesAt = append(l.nodesAt, nodes)
		l.relsAt = append(l.relsAt, rels)
	}
	t0 := time.Now()
	if err := sys.Aion.WaitSync(); err != nil {
		return fail(fmt.Errorf("wait for the lineage cascade: %w", err))
	}
	l.timing.waitSync = time.Since(t0)
	l.timing.load = time.Since(loadStart)
	if err := sys.Aion.TimeStore().CreateSnapshot(); err != nil {
		return fail(fmt.Errorf("post-load snapshot: %w", err))
	}
	l.timing.setup = time.Since(start)
	l.clock = sys.Host.Clock()
	return l, nil
}

// applyUpdate stages one generated update. The LiveJournal generator
// emits only node and relationship creations, each node before its first
// relationship, so every update applies in stream order.
func applyUpdate(tx *hostdb.Tx, u model.Update) error {
	switch u.Kind {
	case model.OpAddNode:
		return tx.CreateNodeWithID(u.NodeID, u.AddLabels, u.SetProps)
	case model.OpAddRel:
		return tx.CreateRelWithID(u.RelID, u.Src, u.Tgt, u.RelLabel, u.SetProps)
	}
	return fmt.Errorf("unexpected generated update kind %v", u.Kind)
}

// close shuts the system down and deletes its files.
func (l *loaded) close() error {
	err := l.sys.Close()
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

// diskBytes is the host's storage plus both temporal stores' footprint.
func (l *loaded) diskBytes() int64 {
	ts, ls := l.sys.Aion.DiskBytes()
	return l.sys.Host.Storage().Total() + ts + ls
}

// setupRepeated runs setup n times in fresh directories under root and
// keeps the last system open for measurement; the earlier ones are closed
// and deleted, so set-up time is measured n times on identical inputs.
func setupRepeated(root string, n, scale int) (*loaded, []setupTiming, error) {
	var timings []setupTiming
	for i := 0; ; i++ {
		// Write back what earlier set-ups and processes left dirty, so
		// their writeback does not run inside this set-up's timing.
		syscall.Sync()
		l, err := setup(filepath.Join(root, fmt.Sprintf("store-%d", i)), scale)
		if err != nil {
			return nil, nil, err
		}
		timings = append(timings, l.timing)
		if i == n-1 {
			return l, timings, nil
		}
		if err := l.close(); err != nil {
			return nil, nil, err
		}
	}
}
