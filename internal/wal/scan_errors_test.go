package wal

// Scan/ScanBatch error paths and the SyncedSize durability watermark that
// replication ships against: misaligned scan starts must fail loudly (a
// replica resuming from a bogus offset is divergence, not data), zero-length
// payloads must round-trip (commit records can carry empty frames), and
// SyncedSize must track exactly the bytes a crash is guaranteed to keep.

import (
	"aion/internal/vfs"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestScanFromMidRecordFails(t *testing.T) {
	l := openLog(t)
	var offs []int64
	for i := 0; i < 8; i++ {
		off, err := l.Append([]byte{byte(i), byte(i), byte(i), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// Start inside record 1's header and inside its payload: both point at
	// garbage headers and must surface ErrCorrupt, not silent records.
	for _, from := range []int64{offs[1] + 2, offs[1] + recordHeaderSize + 1} {
		if _, err := l.Scan(from, func(int64, []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Scan(%d) = %v, want ErrCorrupt", from, err)
		}
		if _, err := l.ScanBatch(from, 0, func([]Frame) bool { return true }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ScanBatch(%d) = %v, want ErrCorrupt", from, err)
		}
	}
}

func TestZeroLengthPayloads(t *testing.T) {
	l := openLog(t)
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("mid")); err != nil {
		t.Fatal(err)
	}
	offs, err := l.AppendBatch([][]byte{{}, []byte("x"), {}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"", "mid", "", "x", ""}
	var got []string
	if _, err := l.Scan(0, func(off int64, p []byte) bool {
		got = append(got, string(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	var batched []string
	if _, err := l.ScanBatch(0, 0, func(fs []Frame) bool {
		for _, f := range fs {
			batched = append(batched, string(f.Payload))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(want) {
		t.Fatalf("batch-scanned %d records, want %d", len(batched), len(want))
	}
	// An empty record reads back and its successor stays aligned.
	if p, err := l.ReadAt(offs[0]); err != nil || len(p) != 0 {
		t.Fatalf("ReadAt(empty) = %q, %v", p, err)
	}
	if p, err := l.ReadAt(offs[1]); err != nil || string(p) != "x" {
		t.Fatalf("ReadAt after empty = %q, %v", p, err)
	}
}

func TestSyncedSizeTracksDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedSize(); got != 0 {
		t.Fatalf("fresh log SyncedSize = %d", got)
	}
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedSize(); got != 0 {
		t.Fatalf("unsynced append raised SyncedSize to %d", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedSize(); got != l.Size() {
		t.Fatalf("after Sync: SyncedSize %d, Size %d", got, l.Size())
	}
	if _, err := l.AppendBatch([][]byte{[]byte("two"), []byte("three")}); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedSize(); got >= l.Size() {
		t.Fatalf("unsynced batch: SyncedSize %d not below Size %d", got, l.Size())
	}
	if err := l.Close(); err != nil { // Close syncs
		t.Fatal(err)
	}

	// Reopen: everything on disk is durable again.
	l2, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	full := l2.Size()
	if got := l2.SyncedSize(); got != full {
		t.Fatalf("reopened log: SyncedSize %d, Size %d", got, full)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn AppendBatch tail: repair trims it, RepairedBytes reports it,
	// and SyncedSize equals the repaired (whole-record) size.
	if err := os.Truncate(path, full-2); err != nil {
		t.Fatal(err)
	}
	l3, err := OpenFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.RepairedBytes() == 0 {
		t.Fatal("expected torn-tail repair")
	}
	if got := l3.SyncedSize(); got != l3.Size() {
		t.Fatalf("repaired log: SyncedSize %d, Size %d", got, l3.Size())
	}
	var seen []string
	if _, err := l3.Scan(0, func(off int64, p []byte) bool {
		seen = append(seen, string(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "one" || seen[1] != "two" {
		t.Fatalf("recovered %v, want [one two]", seen)
	}
}
