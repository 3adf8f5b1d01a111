package vfstest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aion/internal/vfs"
)

// writeFile replaces path with data through vfs.WriteFileAtomic, one WriteAt.
func writeFile(fs vfs.FS, path string, data []byte) error {
	return vfs.WriteFileAtomic(fs, path, func(f vfs.File) error {
		_, err := f.WriteAt(data, 0)
		return err
	})
}

func readFile(t *testing.T, fs vfs.FS, path string) []byte {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWriteFileAtomicProtocol pins the mutating-op sequence (create tmp,
// write, fsync, rename, fsync dir) and checks the result survives a crash.
func TestWriteFileAtomicProtocol(t *testing.T) {
	fs := vfs.NewFaultFS()
	if err := writeFile(fs, "d/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if n := fs.Ops(); n != 5 {
		t.Fatalf("atomic write issued %d mutating ops, want 5", n)
	}
	fs.Crash()
	if got := readFile(t, fs, "d/f"); string(got) != "new" {
		t.Fatalf("after crash: %q, want %q", got, "new")
	}
	if names, _ := fs.ReadDir("d"); len(names) != 1 {
		t.Fatalf("directory holds %v, want only f", names)
	}
}

// TestWriteFileAtomicFailureRemovesTmp checks a failing write callback
// surfaces its error, removes the tmp and leaves the old file in place.
func TestWriteFileAtomicFailureRemovesTmp(t *testing.T) {
	fs := vfs.NewFaultFS()
	if err := writeFile(fs, "d/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := vfs.WriteFileAtomic(fs, "d/f", func(f vfs.File) error {
		if _, err := f.WriteAt([]byte("half"), 0); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the callback's error", err)
	}
	if names, _ := fs.ReadDir("d"); len(names) != 1 || names[0] != "f" {
		t.Fatalf("directory holds %v after a failed write, want only f", names)
	}
	if got := readFile(t, fs, "d/f"); string(got) != "old" {
		t.Fatalf("failed replace changed the file to %q", got)
	}
}

// TestSweepWriteFileAtomic crashes an atomic replace at every fault index
// in both modes: the file must hold the old or the new contents in full.
func TestSweepWriteFileAtomic(t *testing.T) {
	old, next := []byte("old contents"), bytes.Repeat([]byte("new "), 64)
	write := func(fs *vfs.FaultFS) error {
		if err := writeFile(fs, "d/f", old); err != nil {
			return err
		}
		return writeFile(fs, "d/f", next)
	}
	probe := vfs.NewFaultFS()
	if err := write(probe); err != nil {
		t.Fatal(err)
	}
	cases := 0
	Sweep(t, int(probe.Ops()), func(k int, torn bool) {
		cases++
		fs := Armed(k, torn)
		_ = write(fs) // fails at op k
		fs.Crash()
		f, err := fs.Open("d/f")
		if err != nil {
			if k > 5 { // the first replace's five ops all completed
				t.Fatalf("k=%d torn=%v: file lost: %v", k, torn, err)
			}
			return
		}
		f.Close()
		got := readFile(t, fs, "d/f")
		if !bytes.Equal(got, old) && !bytes.Equal(got, next) {
			t.Fatalf("k=%d torn=%v: file holds %q, neither old nor new", k, torn, got)
		}
	})
	if cases != 20 {
		t.Fatalf("Sweep ran %d cases, want 2 modes x 10 fault indexes", cases)
	}
}

// recorder is a testing.TB that records failures instead of failing.
type recorder struct {
	testing.TB
	failed bool
	logs   []string
}

func (r *recorder) Helper()                   {}
func (r *recorder) Failed() bool              { return r.failed }
func (r *recorder) Errorf(f string, a ...any) { r.failed = true }
func (r *recorder) Logf(f string, a ...any)   { r.logs = append(r.logs, fmt.Sprintf(f, a...)) }

// TestSweepNamesFirstFailure checks the driver's case order and that it
// names the (torn, k) of the first failing case only.
func TestSweepNamesFirstFailure(t *testing.T) {
	r := &recorder{}
	var order []string
	Sweep(r, 3, func(k int, torn bool) {
		order = append(order, fmt.Sprintf("%v/%d", torn, k))
		if torn && k >= 2 {
			r.Errorf("case failed")
		}
	})
	if got := strings.Join(order, " "); got != "false/1 false/2 false/3 true/1 true/2 true/3" {
		t.Fatalf("case order %q", got)
	}
	if len(r.logs) != 1 || !strings.Contains(r.logs[0], "torn=true k=2 (of 3") {
		t.Fatalf("logs %q, want one naming torn=true k=2", r.logs)
	}
}
