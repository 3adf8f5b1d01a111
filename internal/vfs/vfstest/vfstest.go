// Package vfstest holds the crash-sweep driver the stores' crash-recovery
// tests share: one fault-free run of a workload measures how many mutating
// operations it issues on a vfs.FaultFS, then the workload is crashed at
// every one of those fault indexes, in fail-stop and in torn-fsync mode.
package vfstest

import (
	"testing"

	"aion/internal/vfs"
)

// Armed returns a fresh FaultFS whose k-th mutating operation, and every
// one after it, fails; with torn set, the first failing fsync persists a
// torn prefix of the pending writes.
func Armed(k int, torn bool) *vfs.FaultFS {
	fs := vfs.NewFaultFS()
	fs.SetTornSync(torn)
	fs.SetFailAfter(int64(k))
	return fs
}

// Sweep calls run for every fault index k = 1..n, first with torn false
// (fail-stop) and then with torn true (torn fsync). n is the mutating-op
// count of the workload's fault-free run (FaultFS.Ops); each run arms its
// own filesystem at k (usually with Armed), drives the workload, crashes,
// reopens and makes its assertions. Sweep logs the (torn, k) case at which
// the test first failed, so a fatal assertion deep in a helper still names
// its case.
func Sweep(t testing.TB, n int, run func(k int, torn bool)) {
	t.Helper()
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			sweepCase(t, n, k, torn, run)
		}
	}
}

func sweepCase(t testing.TB, n, k int, torn bool, run func(k int, torn bool)) {
	t.Helper()
	failed := t.Failed()
	defer func() {
		if !failed && t.Failed() {
			t.Logf("crash sweep: first failure at torn=%v k=%d (of %d fault indexes)", torn, k, n)
		}
	}()
	run(k, torn)
}
