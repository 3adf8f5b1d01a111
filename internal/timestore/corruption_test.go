package timestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"aion/internal/model"
)

// TestCorruptedSnapshotSurfacesError damages the framed files a GetGraph
// materializes from — active snapshots (.snap) and sealed-partition chain
// elements (.dsnap) — under both the sequential and the parallel loader. A
// GetGraph that needs them must return an error, not wrong data or a
// panic. A corrupt length field must not size an allocation: the frame
// decoder trusts a length only once the record it announces fits in the
// file, so a 4 GiB length in a tiny file allocates nothing near it.
func TestCorruptedSnapshotSurfacesError(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
		huge   bool
	}{
		{"flipped-byte", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }, false},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-3] }, false},
		{"huge-length", func(b []byte) []byte { binary.LittleEndian.PutUint32(b, 0xFFFFFFF0); return b }, true},
	}
	files := []struct {
		ext  string
		opts Options
	}{
		// Snapshots every 5 updates; GetGraph(6) must load an older one
		// than the cached newest.
		{"snap", Options{SnapshotEveryOps: 5}},
		// Seals every 4 updates with a chain element at every timestamp;
		// GetGraph(6) materializes from the second partition's chain.
		{"dsnap", Options{SnapshotEveryOps: 1 << 30, PartitionEvery: 4, DeltaChainLength: 1}},
	}
	for _, par := range []int{1, 2} {
		for _, file := range files {
			for _, c := range corruptions {
				t.Run(fmt.Sprintf("par%d/%s/%s", par, file.ext, c.name), func(t *testing.T) {
					opts := file.opts
					opts.Dir = t.TempDir()
					opts.GraphStoreBytes = 1 // force disk reads
					opts.ParallelIO = par
					s := openStore(t, opts)
					for _, u := range chainUpdates(10) {
						if err := s.AppendBatch([]model.Update{u}); err != nil {
							t.Fatal(err)
						}
					}
					s.WaitSnapshots()
					paths, _ := filepath.Glob(filepath.Join(opts.Dir, "*", "*."+file.ext))
					top, _ := filepath.Glob(filepath.Join(opts.Dir, "*."+file.ext))
					paths = append(paths, top...)
					if len(paths) == 0 {
						t.Fatalf("no .%s files written", file.ext)
					}
					for _, path := range paths {
						b, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, c.mangle(b), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					_, err := s.GetGraphContext(context.Background(), 6)
					runtime.ReadMemStats(&after)
					if err == nil {
						t.Fatalf("GetGraph over a %s .%s file must surface an error", c.name, file.ext)
					}
					if alloc := after.TotalAlloc - before.TotalAlloc; c.huge && alloc >= 64<<20 {
						t.Fatalf("GetGraph allocated %d MiB decoding a corrupt length", alloc>>20)
					}
				})
			}
		}
	}
}
