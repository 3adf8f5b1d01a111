package pagecache

import (
	"aion/internal/vfs"
	"path/filepath"
	"testing"
)

func TestAllocateGetRoundTrip(t *testing.T) {
	c := OpenMem(16)
	defer c.Close()
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "hello page")
	c.MarkDirty(id)
	c.Release(id)

	got, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "hello page" {
		t.Errorf("got %q", got[:10])
	}
	c.Release(id)
}

func TestEvictionWritesBack(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	var ids []PageID
	// Allocate more pages than capacity so older ones get evicted.
	for i := 0; i < 32; i++ {
		id, data, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i)
		c.MarkDirty(id)
		c.Release(id)
		ids = append(ids, id)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected evictions with capacity 8 and 32 pages")
	}
	for i, id := range ids {
		data, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Errorf("page %d: byte = %d, want %d", id, data[0], i)
		}
		c.Release(id)
	}
}

func TestFileBackedPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	c, err := OpenFS(vfs.OS, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "durable")
	c.MarkDirty(id)
	c.Release(id)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenFS(vfs.OS, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.PageCount() != 1 {
		t.Fatalf("PageCount = %d, want 1", c2.PageCount())
	}
	got, err := c2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "durable" {
		t.Errorf("got %q", got[:7])
	}
	c2.Release(id)
}

func TestGetOutOfRange(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	if _, err := c.Get(42); err == nil {
		t.Error("out-of-range page must error")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	id, data, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0xAB
	c.MarkDirty(id)
	// Keep the page pinned while churning through the cache.
	for i := 0; i < 64; i++ {
		id2, _, err := c.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		c.Release(id2)
	}
	if data[0] != 0xAB {
		t.Error("pinned page buffer must stay valid")
	}
	c.Release(id)
}

func TestHitMissCounters(t *testing.T) {
	c := OpenMem(8)
	defer c.Close()
	id, _, _ := c.Allocate()
	c.Release(id)
	_, _ = c.Get(id)
	c.Release(id)
	s := c.Stats()
	if s.Hits == 0 {
		t.Error("expected a cache hit")
	}
	if c.DiskBytes() != PageSize {
		t.Errorf("DiskBytes = %d", c.DiskBytes())
	}
}
