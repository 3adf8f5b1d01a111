package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzScanFrames drives the one frame decoder — the reader behind WAL
// replay, snapshot loads and delta-chain loads — with arbitrary file
// contents and readahead sizes. Invariants:
//   - it never panics, and fails only with ErrCorrupt;
//   - it allocates only the readahead buffer, a grow buffer no larger than
//     the input, and frame metadata linear in the input — never anything
//     sized by an untrusted length field (seeded with a 4 GiB length);
//   - the delivered frames are contiguous from offset 0, and re-encoding
//     them with AppendFrame reproduces the consumed prefix byte for byte;
//     a clean scan consumes the whole input.
func FuzzScanFrames(f *testing.F) {
	var valid []byte
	for _, p := range [][]byte{[]byte("first record"), nil, bytes.Repeat([]byte{0xAB}, 300), []byte("x")} {
		valid = AppendFrame(valid, p)
	}
	huge := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0)
	huge = append(huge, 1, 2, 3, 4, 5, 6, 7, 8)
	for _, ra := range []uint16{0, 9, 64} {
		f.Add(valid, ra)
		f.Add(valid[:len(valid)-3], ra) // torn tail
		f.Add(append(AppendFrame(nil, []byte("ok")), huge...), ra)
	}
	f.Fuzz(func(t *testing.T, data []byte, ra uint16) {
		readahead := int(ra)
		got := make([]byte, 0, len(data))
		next := int64(0)
		contiguous := true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		end, err := ScanFrames(bytes.NewReader(data), 0, int64(len(data)), readahead, func(frames []Frame) bool {
			for _, fr := range frames {
				contiguous = contiguous && fr.Off == next
				next = fr.End()
				got = AppendFrame(got, fr.Payload)
			}
			return true
		})
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("non-corruption error on an in-memory input: %v", err)
		}
		if err == nil && end != int64(len(data)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", end, len(data))
		}
		if !contiguous || next != end {
			t.Fatalf("frames not contiguous up to the returned offset %d (last end %d)", end, next)
		}
		if !bytes.Equal(got, data[:end]) {
			t.Fatalf("re-encoded frames differ from the consumed prefix [0,%d)", end)
		}
		// TotalAlloc is process-wide: the slack absorbs the fuzz engine's
		// own concurrent allocations, far below any length-sized buffer.
		limit := uint64(10*len(data)) + 64<<10
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("scan of %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
	})
}
