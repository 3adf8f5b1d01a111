package timestore

// Crash and recovery tests for the partition seal protocol, extending the
// crash_test.go sweep: the seal's directory surgery (log rename, marker
// write, fresh active state) is crashed at every mutating-operation index,
// and recovery must always land in one of exactly two states — the seal
// fully committed (marker durable, partition immutable) or fully rolled
// back (active log reinstated, partition directory empty) — never a
// hybrid, and never losing an acked commit.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/strstore"
	"aion/internal/vfs"
	"aion/internal/vfs/vfstest"
)

func openCrashSealTS(fs vfs.FS, codec *enc.Codec) (*Store, error) {
	return Open(codec, Options{
		Dir:              "ts",
		SnapshotEveryOps: 1 << 30, // policy off: the driver snapshots eagerly
		PartitionEvery:   40,
		DeltaChainLength: 2,
		ParallelIO:       1,
		FS:               fs,
	})
}

// verifySealedLayout asserts the never-hybrid invariant on the recovered
// directory tree: partition markers are dense (p-1..p-k all sealed), and
// any directory past the sealed run holds no log segment — a crashed seal
// either committed or was rolled back entirely.
func verifySealedLayout(t *testing.T, k int, torn bool, fs vfs.FS, st *Store) {
	t.Helper()
	sealed := len(st.parts)
	for n := 1; n <= sealed; n++ {
		names, err := fs.ReadDir("ts/p-" + strconv.Itoa(n))
		if err != nil {
			t.Fatalf("k=%d torn=%v: read sealed p-%d: %v", k, torn, n, err)
		}
		hasMarker, hasLog := false, false
		for _, name := range names {
			if name == partMarkerName {
				hasMarker = true
			}
			if name == "updates.log" {
				hasLog = true
			}
			if strings.HasSuffix(name, ".tmp") {
				t.Errorf("k=%d torn=%v: leftover tmp in sealed p-%d: %s", k, torn, n, name)
			}
		}
		if !hasMarker || !hasLog {
			t.Fatalf("k=%d torn=%v: sealed p-%d marker=%v log=%v, want both", k, torn, n, hasMarker, hasLog)
		}
	}
	// Directories past the sealed run must have been rolled back: no log
	// segment may survive without its committing marker.
	for n := sealed + 1; n <= sealed+2; n++ {
		names, err := fs.ReadDir("ts/p-" + strconv.Itoa(n))
		if err != nil {
			continue
		}
		for _, name := range names {
			t.Errorf("k=%d torn=%v: hybrid seal: p-%d still holds %s after rollback", k, torn, n, name)
		}
	}
}

func runSealCrashCase(t *testing.T, us []model.Update, k int, torn bool) {
	t.Helper()
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfstest.Armed(k, torn)
	var res driveResult
	st, err := openCrashSealTS(fs, codec)
	if err == nil {
		res = driveStore(st, us)
		reapWorker(st)
	}
	fs.Crash()
	st2, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatalf("k=%d torn=%v: reopen after crash failed: %v", k, torn, err)
	}
	verifyRecovered(t, k, torn, codec, st2, us, res)
	verifySealedLayout(t, k, torn, fs, st2)
	reapWorker(st2)
}

// TestCrashSweepSeal crashes a partition-sealing workload at every
// mutating-operation index in both fail modes. The workload crosses three
// seal boundaries, so every fault index inside every stage of the seal
// protocol — log sync, rename, marker write, fresh-active install,
// compaction's chain writes — is hit at least once.
func TestCrashSweepSeal(t *testing.T) {
	us := genWorkload(150)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	st, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	res := driveStore(st, us)
	if res.attempted != len(us) {
		t.Fatalf("fault-free run stopped after %d/%d updates", res.attempted, len(us))
	}
	if got := len(st.parts); got < 3 {
		t.Fatalf("fault-free run sealed %d partitions, want >= 3", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n := int(fs.Ops())
	t.Logf("sweeping %d fault indexes × 2 modes over a %d-update, %d-seal workload",
		n, len(us), 3)
	vfstest.Sweep(t, n, func(k int, torn bool) { runSealCrashCase(t, us, k, torn) })
}

// TestRecoveryDropsOrphanDeltas is the latent-bug regression: deleting a
// mid-chain full materialization orphans every delta based on it. Recovery
// must remove the orphans (applying a delta to the wrong base silently
// corrupts materialization), notice the chain is no longer complete, drop
// it, and recompact from the partition log — after which queries are whole
// again.
func TestRecoveryDropsOrphanDeltas(t *testing.T) {
	ctx := context.Background()
	us := genWorkload(120)
	codec := enc.NewCodec(strstore.NewMem())
	fs := vfs.NewFaultFS()
	st, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatal(err)
	}
	res := driveStore(st, us)
	if res.attempted != len(us) {
		t.Fatalf("drive stopped after %d/%d updates", res.attempted, len(us))
	}
	if len(st.parts) == 0 {
		t.Fatal("workload sealed no partitions")
	}
	// Pick a partition whose chain has a full beyond the entry full.
	var victim string
	var pdir string
	for _, p := range st.parts {
		for _, c := range p.chain[1:] {
			if c.kind == enc.DeltaFull {
				victim, pdir = c.path, p.dir
				break
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatal("no mid-chain full to delete; tune DeltaChainLength or workload size")
	}
	before, err := st.GetDiffContext(ctx, 0, us[len(us)-1].TS+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the orphaning: the mid-chain full disappears (torn disk,
	// manual deletion), and a stray compaction tmp is left behind.
	if err := fs.Remove(victim); err != nil {
		t.Fatal(err)
	}
	stray := pdir + "/full-ffffffffffffffff-00000000.dsnap.tmp"
	f, err := fs.Create(stray)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := openCrashSealTS(fs, codec)
	if err != nil {
		t.Fatalf("reopen after orphaning: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	names, err := fs.ReadDir(pdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("leftover tmp after recovery: %s", name)
		}
	}
	// Recompaction restored a complete chain in every partition.
	for _, p := range st2.parts {
		if !chainComplete(p, p.chain) {
			t.Fatalf("partition %s chain not recompacted to completeness", p.dir)
		}
	}
	// And the store's contents are untouched.
	after, err := st2.GetDiffContext(ctx, 0, us[len(us)-1].TS+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered %d updates, want %d", len(after), len(before))
	}
	for i := range after {
		if string(encodeU(t, codec, after[i])) != string(encodeU(t, codec, before[i])) {
			t.Fatalf("update %d changed across orphan recovery", i)
		}
	}
	// A graph query landing inside the recompacted partition materializes.
	mid := us[len(us)/3].TS
	g, err := st2.GetGraphContext(ctx, mid)
	if err != nil {
		t.Fatalf("GetGraph(%d) through recompacted chain: %v", mid, err)
	}
	if g.NodeCount() == 0 {
		t.Error("recompacted materialization is empty")
	}
}
