package hostdb

import (
	"sync"
	"testing"

	"aion/internal/model"
	"aion/internal/vfs"
	"aion/internal/vfs/vfstest"
)

// Crash-recovery sweep for the group-commit pipeline: a CONCURRENT
// committer workload runs against a FaultFS that fails at every mutating-
// operation index (fail-stop and torn-fsync modes), the machine crashes —
// discarding all unsynced bytes, possibly mid-way through a batched WAL
// append — and the store is reopened. Recovery must observe:
//
//   - commit atomicity: every recovered transaction is whole (both of its
//     staged updates, never one);
//   - prefix consistency: the recovered timestamps are a contiguous
//     1..m — a torn batch append can only lose a suffix of the group, so
//     a later transaction never survives without the ones committed
//     before it;
//   - durability of acks: every transaction whose Commit returned success
//     before the crash is recovered (SyncCommits means the ack happened
//     after the group's fsync pair).
//
// Because the workload is concurrent, the fault lands at a different
// logical point on every run; the checks are invariant-based, so every
// landing spot is a valid test.

const (
	crashCommitters  = 4
	crashTxPerWorker = 5
)

// driveCrashLoad runs the concurrent workload: each committer commits
// transactions that create two nodes sharing a unique "tag" property.
// It returns tag→timestamp for every acked (successfully committed)
// transaction.
func driveCrashLoad(db *DB) map[int64]model.Timestamp {
	acked := make(map[int64]model.Timestamp)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < crashCommitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < crashTxPerWorker; i++ {
				tag := int64(w*1000 + i)
				props := model.Properties{"tag": model.IntValue(tag)}
				tx := db.Begin()
				if _, err := tx.CreateNode([]string{"C"}, props); err != nil {
					tx.Rollback()
					return
				}
				if _, err := tx.CreateNode([]string{"C"}, props); err != nil {
					tx.Rollback()
					return
				}
				ts, err := tx.Commit()
				if err != nil {
					// Injected fault: this and (fail-stop) all later
					// commits are unacked. Keep trying — later attempts
					// exercise the failed-log path.
					continue
				}
				mu.Lock()
				acked[tag] = ts
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return acked
}

// verifyRecovered checks the three invariants against a reopened store.
func verifyRecovered(t *testing.T, k int, torn bool, db *DB, acked map[int64]model.Timestamp) {
	t.Helper()
	recovered := make(map[model.Timestamp]int64) // ts -> tag
	maxTS := model.Timestamp(0)
	err := db.ReplayCommitted(0, func(ts model.Timestamp, us []model.Update) error {
		if len(us) != 2 {
			t.Fatalf("k=%d torn=%v: recovered tx ts=%d has %d updates, want 2 (commit atomicity)",
				k, torn, ts, len(us))
		}
		var tags [2]int64
		for i, u := range us {
			if u.Kind != model.OpAddNode {
				t.Fatalf("k=%d torn=%v: ts=%d update %d kind=%v, want AddNode", k, torn, ts, i, u.Kind)
			}
			v, ok := u.SetProps["tag"]
			if !ok {
				t.Fatalf("k=%d torn=%v: ts=%d update %d missing tag", k, torn, ts, i)
			}
			tags[i] = v.Int()
		}
		if tags[0] != tags[1] {
			t.Fatalf("k=%d torn=%v: ts=%d mixes tags %d and %d (commit atomicity)",
				k, torn, ts, tags[0], tags[1])
		}
		if prev, dup := recovered[ts]; dup {
			t.Fatalf("k=%d torn=%v: ts=%d recovered twice (tags %d, %d)", k, torn, ts, prev, tags[0])
		}
		recovered[ts] = tags[0]
		if ts > maxTS {
			maxTS = ts
		}
		return nil
	})
	if err != nil {
		t.Fatalf("k=%d torn=%v: replay: %v", k, torn, err)
	}
	// Prefix consistency: timestamps are contiguous 1..m.
	if int(maxTS) != len(recovered) {
		t.Fatalf("k=%d torn=%v: recovered %d txs but max ts is %d (gap: suffix without prefix)",
			k, torn, len(recovered), maxTS)
	}
	for ts := model.Timestamp(1); ts <= maxTS; ts++ {
		if _, ok := recovered[ts]; !ok {
			t.Fatalf("k=%d torn=%v: ts=%d missing from contiguous prefix 1..%d", k, torn, ts, maxTS)
		}
	}
	// No acked commit may be lost, and it must carry its own tag.
	for tag, ts := range acked {
		got, ok := recovered[ts]
		if !ok {
			t.Fatalf("k=%d torn=%v: acked commit ts=%d (tag %d) lost by crash", k, torn, ts, tag)
		}
		if got != tag {
			t.Fatalf("k=%d torn=%v: acked ts=%d has tag %d, want %d", k, torn, ts, got, tag)
		}
	}
	if db.Clock() != maxTS {
		t.Fatalf("k=%d torn=%v: recovered clock %d, want %d", k, torn, db.Clock(), maxTS)
	}
	if nodes, _ := db.Counts(); nodes != 2*len(recovered) {
		t.Fatalf("k=%d torn=%v: %d nodes recovered, want %d", k, torn, nodes, 2*len(recovered))
	}
}

func runGroupCommitCrashCase(t *testing.T, k int, torn bool) {
	t.Helper()
	fs := vfstest.Armed(k, torn)
	var acked map[int64]model.Timestamp
	db, err := Open(Options{FS: fs, SyncCommits: true})
	if err == nil {
		acked = driveCrashLoad(db)
		fs.Crash() // power cut FIRST: nothing Close still flushes may count as durable
		_ = db.Close()
	} else {
		fs.Crash()
	}
	db2, err := Open(Options{FS: fs, SyncCommits: true})
	if err != nil {
		t.Fatalf("k=%d torn=%v: reopen after crash failed: %v", k, torn, err)
	}
	defer db2.Close()
	verifyRecovered(t, k, torn, db2, acked)
}

// TestCrashSweepGroupCommit measures the fault-free workload's mutating-op
// count, then crashes at every fault index in both modes.
func TestCrashSweepGroupCommit(t *testing.T) {
	fs := vfs.NewFaultFS()
	db, err := Open(Options{FS: fs, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	acked := driveCrashLoad(db)
	if want := crashCommitters * crashTxPerWorker; len(acked) != want {
		t.Fatalf("fault-free run acked %d/%d transactions", len(acked), want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(fs.Ops())
	if n < 10 {
		t.Fatalf("workload issued only %d mutating ops", n)
	}
	t.Logf("sweeping %d fault indexes × 2 modes over %d concurrent transactions",
		n, crashCommitters*crashTxPerWorker)
	vfstest.Sweep(t, n, func(k int, torn bool) { runGroupCommitCrashCase(t, k, torn) })
}
