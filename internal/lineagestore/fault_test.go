package lineagestore

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/strstore"
)

func applyChain(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		u := model.AddNode(model.Timestamp(i+1), model.NodeID(i), []string{"N"},
			model.Properties{"v": model.IntValue(int64(i))})
		if err := s.ApplyBatch([]model.Update{u}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenResetsTruncatedIndex: a crash can cut an index file mid-page (or
// lose the tail the B+Tree meta points into). The LineageStore is derived
// data, so Open must recover by resetting to empty — never by failing or by
// serving a half-tree.
func TestOpenResetsTruncatedIndex(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 64)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Cut nodes.idx down to one page + a torn fragment: the meta page still
	// carries a valid magic but the root it points at is gone.
	path := filepath.Join(dir, "nodes.idx")
	if err := os.Truncate(path, pagecache.PageSize+50); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatalf("open over a truncated index must reset, got %v", err)
	}
	if !s2.Reset() {
		t.Fatal("Reset() must report the corruption recovery")
	}
	if s2.AppliedThrough() != -1 {
		t.Errorf("reset store AppliedThrough = %d, want -1", s2.AppliedThrough())
	}
	// The reset store is fully usable: re-apply and query.
	applyChain(t, s2, 64)
	n, err := s2.GetNodeContext(context.Background(), model.NodeID(7), 64, 65)
	if err != nil || len(n) == 0 {
		t.Fatalf("GetNode after reset+reapply: %v %v", n, err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen after the reset must not reset again.
	s3, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Reset() {
		t.Error("clean reopen must not report a reset")
	}
}

// TestOpenResetsBadMetaMagic: garbage in the meta page (torn page zero) is
// detected by the B+Tree magic check and also recovers by reset.
func TestOpenResetsBadMetaMagic(t *testing.T) {
	dir := t.TempDir()
	codec := enc.NewCodec(strstore.NewMem())
	s, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	applyChain(t, s, 8)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "rels.idx"), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage!"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(codec, Options{Dir: dir})
	if err != nil {
		t.Fatalf("open over a corrupt meta page must reset, got %v", err)
	}
	if !s2.Reset() {
		t.Fatal("Reset() must report the corruption recovery")
	}
}
