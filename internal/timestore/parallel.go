// Parallel snapshot and replay pipelines. Snapshot retrieval dominates
// global-query latency (Sec 4.3, Figs 6-7): GetGraph loads the floor
// snapshot and replays the log tail, and both halves were single-threaded
// encode/CRC/decode/apply loops. Here each becomes a staged pipeline over
// pool.RunOrdered — a sequential reader/writer on the order-sensitive edge,
// Options.ParallelIO workers on the CPU-heavy middle — so reads scale with
// cores while producing byte- and order-identical results to the
// sequential paths (ParallelIO=1 selects those directly).
package timestore

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"

	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/pool"
	"aion/internal/vfs"
	"aion/internal/wal"
)

const (
	// frameBatchRecords is the number of updates grouped into one snapshot
	// encode job: large enough to amortize channel hand-off, small enough
	// to keep every worker busy near the end of a file. (Decode jobs are
	// the frame scan's batches, of similar size.)
	frameBatchRecords = 256
	// frameBatchBytes is the initial capacity of the pooled job buffers.
	frameBatchBytes = 256 << 10
	// replayReadahead is the wal.ScanFrames chunk size used during replay.
	replayReadahead = 1 << 20
)

// frameBatch is one pipeline job: a pooled buffer of concatenated record
// payloads plus per-record metadata. ends[i] is the end offset of record i
// within buf; offs[i] is its file offset (the frame scan has already
// verified every CRC).
type frameBatch struct {
	buf  *[]byte
	ends []int
	offs []int64
}

// release returns the batch buffer to the scratch pool.
func (b *frameBatch) release(s *Store) {
	*b.buf = (*b.buf)[:0]
	s.framePool.Put(b.buf)
}

// decodedBatch is a worker's output: updates in record order plus the
// file offset of each.
type decodedBatch struct {
	us   []model.Update
	offs []int64
}

// writeUpdateFrames writes one wal frame per update, holding the update's
// Fig 3 record, to w: one Write per frame, with reused encode buffers.
func (s *Store) writeUpdateFrames(w io.Writer, us []model.Update) error {
	var rec, frame []byte
	for _, u := range us {
		var err error
		if rec, err = s.codec.AppendUpdate(rec[:0], u); err != nil {
			return err
		}
		frame = wal.AppendFrame(frame[:0], rec)
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// writeFramedFile atomically replaces path (vfs.WriteFileAtomic) with the
// frames body writes through a 64 KiB buffer, returning the bytes written.
// Snapshot and chain records hold string refs, so the string table is
// synced before the file's own fsync.
func (s *Store) writeFramedFile(path string, body func(w io.Writer) error) (int64, error) {
	var written int64
	err := vfs.WriteFileAtomic(s.fs, path, func(f vfs.File) error {
		sw := &vfs.SeqWriter{F: f}
		w := bufio.NewWriterSize(sw, 1<<16)
		if err := body(w); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		written = sw.Off
		return s.codec.Strings.Sync()
	})
	return written, err
}

// writeSnapshotFile atomically persists a full graph materialization as a
// framed sequence of insertion updates in the Fig 3 record format,
// returning the bytes written. ParallelIO > 1 encodes on a worker pool and
// streams the finished chunks in emission order, so the file bytes are
// identical to the sequential writer's; the sequential loop (ParallelIO=1)
// is the reference implementation.
func (s *Store) writeSnapshotFile(path string, g *memgraph.Graph) (int64, error) {
	us := g.Export()
	return s.writeFramedFile(path, func(w io.Writer) error {
		if s.opts.ParallelIO <= 1 {
			return s.writeUpdateFrames(w, us)
		}
		return pool.RunOrdered(context.Background(), s.opts.ParallelIO,
			func(emit func([]model.Update) bool) error {
				for len(us) > 0 {
					n := min(frameBatchRecords, len(us))
					if !emit(us[:n]) {
						return nil
					}
					us = us[n:]
				}
				return nil
			},
			func(batch []model.Update) (*[]byte, error) {
				bp := s.framePool.Get()
				buf := bytes.NewBuffer((*bp)[:0])
				err := s.writeUpdateFrames(buf, batch)
				*bp = buf.Bytes()
				if err != nil {
					*bp = (*bp)[:0]
					s.framePool.Put(bp)
					return nil, err
				}
				return bp, nil
			},
			func(bp *[]byte) error {
				_, werr := w.Write(*bp)
				*bp = (*bp)[:0]
				s.framePool.Put(bp)
				return werr
			})
	})
}

// loadSnapshotFile materializes a snapshot file into a fresh graph. A
// snapshot is a framed run of insertion updates, so loading one is
// replaying that file into an empty graph through the log-replay engine.
func (s *Store) loadSnapshotFile(ctx context.Context, path string, ts model.Timestamp) (*memgraph.Graph, error) {
	g := memgraph.New()
	var aerr error
	err := s.replay(ctx, s.fileFrames(path, 0), func(_ int64, u model.Update) bool {
		aerr = g.Apply(u)
		return aerr == nil
	})
	if err == nil {
		err = aerr
	}
	if err != nil {
		return nil, fmt.Errorf("timestore: snapshot %s: %w", path, err)
	}
	g.SetTimestamp(ts)
	return g, nil
}

// frameSource feeds fn the framed records of one file in readahead batches
// until fn returns false: a log from an offset (logFrames) or a snapshot
// or chain file (fileFrames).
type frameSource func(fn func([]wal.Frame) bool) error

func logFrames(l *wal.Log, from int64) frameSource {
	return func(fn func([]wal.Frame) bool) error {
		_, err := l.ScanBatch(from, replayReadahead, fn)
		return err
	}
}

func (s *Store) fileFrames(path string, from int64) frameSource {
	return func(fn func([]wal.Frame) bool) error {
		return scanFile(s.fs, path, from, replayReadahead, fn)
	}
}

// scanFile runs wal.ScanFrames over the file at path from offset from to
// its end.
func scanFile(fs vfs.FS, path string, from int64, readahead int, fn func([]wal.Frame) bool) (err error) {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer vfs.CloseChecked(f, &err)
	size, err := f.Size()
	if err != nil {
		return err
	}
	_, err = wal.ScanFrames(f, from, size, readahead, fn)
	return err
}

// replayLog streams decoded updates (with their log offsets) from the
// *active* log starting at offset from, in commit order, stopping early
// when fn returns false or ctx is cancelled (cancellation is checked once
// per readahead batch, so a runaway range scan stops within one batch of
// the deadline). It runs on replay, the shared engine of recover,
// ScanDiffContext, and therefore GetGraphContext/GetGraphsContext, and of
// snapshot loads: the frames are read in readahead batches and, when
// ParallelIO > 1, record decoding runs on the worker stage while fn (index
// maintenance, graph apply) stays in order on the calling goroutine.
// Sealed partition segments and chain files replay through replaySeq.
func (s *Store) replayLog(ctx context.Context, from int64, fn func(off int64, u model.Update) bool) error {
	return s.replay(ctx, logFrames(s.log, from), fn)
}

func (s *Store) replay(ctx context.Context, src frameSource, fn func(off int64, u model.Update) bool) error {
	if s.opts.ParallelIO > 1 {
		return s.replayParallel(ctx, src, fn)
	}
	return s.replaySeq(ctx, src, fn)
}

// replaySeq is the sequential replay path, also used inside scatter-
// gather workers (collectPart) where nesting another pipeline per
// partition would oversubscribe the pool.
func (s *Store) replaySeq(ctx context.Context, src frameSource, fn func(off int64, u model.Update) bool) error {
	var derr error
	err := src(func(frames []wal.Frame) bool {
		if derr = ctx.Err(); derr != nil {
			return false
		}
		for _, fr := range frames {
			u, e := s.codec.DecodeUpdate(fr.Payload)
			if e != nil {
				derr = e
				return false
			}
			if !fn(fr.Off, u) {
				return false
			}
		}
		return true
	})
	if derr != nil {
		return derr
	}
	return err
}

func (s *Store) replayParallel(ctx context.Context, src frameSource, fn func(off int64, u model.Update) bool) error {
	return pool.RunOrdered(ctx, s.opts.ParallelIO,
		func(emit func(frameBatch) bool) error {
			stopped := false
			err := src(func(frames []wal.Frame) bool {
				// One job per scan batch (at most a few hundred records).
				// Frames alias the scan's readahead buffer, so the job
				// copies its records into a pooled batch buffer before the
				// scan moves on.
				b := frameBatch{buf: s.framePool.Get()}
				buf := (*b.buf)[:0]
				for _, fr := range frames {
					buf = append(buf, fr.Payload...)
					b.ends = append(b.ends, len(buf))
					b.offs = append(b.offs, fr.Off)
				}
				*b.buf = buf
				if !emit(b) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
			return err
		},
		func(b frameBatch) (decodedBatch, error) {
			defer b.release(s)
			buf := *b.buf
			payloads := make([][]byte, len(b.ends))
			start := 0
			for i, end := range b.ends {
				payloads[i] = buf[start:end]
				start = end
			}
			us, err := s.codec.DecodeUpdates(make([]model.Update, 0, len(payloads)), payloads)
			if err != nil {
				return decodedBatch{}, err
			}
			return decodedBatch{us: us, offs: b.offs}, nil
		},
		func(d decodedBatch) error {
			for i, u := range d.us {
				if !fn(d.offs[i], u) {
					return pool.ErrStop
				}
			}
			return nil
		})
}
