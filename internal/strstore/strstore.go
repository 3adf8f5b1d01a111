// Package strstore implements the string store of Sec 4.2: instead of
// storing label and property-key strings inline in disk records, records
// hold a 4-byte reference into an append-only interned string table,
// substantially lowering record sizes for repeated strings.
package strstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"aion/internal/vfs"
)

// Ref is a 4-byte reference to an interned string. Per the paper the most
// significant bits of a reference are reserved for state flags by callers
// (e.g. label present/deleted, property type tags), so the store itself only
// hands out refs that fit in the low 28 bits.
type Ref uint32

// MaxRef bounds the id space, leaving the top bits free for caller flags.
const MaxRef = 1<<28 - 1

// Store is an append-only interned string table. It is safe for concurrent
// use; the read paths (Lookup, and Intern of an already-known string) are
// lock-free so the TimeStore's parallel encode/decode workers do not
// serialize on the table. When constructed with a backing file, every new
// string is appended durably (length-prefixed) so the table can be reloaded.
type Store struct {
	mu       sync.Mutex   // serializes interning of new strings and file state
	byID     atomic.Value // []string; append-only, republished on growth
	ids      sync.Map     // string -> Ref; written once per string
	w        *bufio.Writer
	f        vfs.File
	size     int64 // logical file size including buffered appends
	synced   int64 // extent covered by the last successful Sync
	dirty    bool  // unsynced appends outstanding
	repaired int64 // torn-tail bytes truncated by Open
	failed   error // sticky: first append/sync error; later writes fail-stop
}

// NewMem creates an in-memory store with no persistence.
func NewMem() *Store {
	s := &Store{}
	s.byID.Store([]string(nil))
	return s
}

// OpenFS creates or reloads a persistent store backed by the file at path
// on fs. Reloading validates the table
// as it goes: a record whose length prefix or body runs past the end of
// the file is the torn tail of a crash mid-append, and is truncated away.
// References are positional, so the table can only be cut at the end —
// which is exactly what a crash can produce, since appends are sequential.
func OpenFS(fs vfs.FS, path string) (*Store, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("strstore: open: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("strstore: stat: %w", err), f.Close())
	}
	s := &Store{f: f}
	r := bufio.NewReader(io.NewSectionReader(f, 0, size))
	var lenBuf [4]byte
	var byID []string
	var off int64
	for off+4 <= size {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, errors.Join(fmt.Errorf("strstore: reload: %w", err), f.Close())
		}
		n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		if off+4+n > size {
			break // torn body: a crash cut the append short
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, errors.Join(fmt.Errorf("strstore: reload body: %w", err), f.Close())
		}
		str := string(b)
		s.ids.Store(str, Ref(len(byID)))
		byID = append(byID, str)
		off += 4 + n
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return nil, errors.Join(fmt.Errorf("strstore: tail repair truncate: %w", err), f.Close())
		}
		if err := f.Sync(); err != nil {
			return nil, errors.Join(fmt.Errorf("strstore: tail repair sync: %w", err), f.Close())
		}
		s.repaired = size - off
	}
	s.byID.Store(byID)
	s.w = bufio.NewWriter(&vfs.SeqWriter{F: f, Off: off})
	// Whatever survived open is the durable baseline.
	s.size, s.synced = off, off
	return s, nil
}

// RepairedBytes reports how many torn-tail bytes Open discarded.
func (st *Store) RepairedBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.repaired
}

func (st *Store) table() []string {
	t, _ := st.byID.Load().([]string)
	return t
}

// Intern returns the reference for s, assigning and persisting a new one if
// the string has not been seen before. Known strings resolve without
// taking a lock.
func (st *Store) Intern(s string) (Ref, error) {
	if id, ok := st.ids.Load(s); ok {
		return id.(Ref), nil
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.ids.Load(s); ok {
		return id.(Ref), nil
	}
	if st.failed != nil {
		return 0, fmt.Errorf("strstore: store failed: %w", st.failed)
	}
	cur := st.table()
	if len(cur) >= MaxRef {
		return 0, fmt.Errorf("strstore: table full (%d strings)", len(cur))
	}
	id := Ref(len(cur))
	if st.w != nil {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
		if _, err := st.w.Write(lenBuf[:]); err != nil {
			st.failed = err
			return 0, fmt.Errorf("strstore: append: %w", err)
		}
		if _, err := st.w.WriteString(s); err != nil {
			st.failed = err
			return 0, fmt.Errorf("strstore: append: %w", err)
		}
		st.size += 4 + int64(len(s))
		st.dirty = true
	}
	// Appends are serialized under mu and concurrent readers never index
	// past the length of the header they loaded, so appending in place
	// (when capacity allows) and republishing the longer header is safe.
	st.byID.Store(append(cur, s))
	st.ids.Store(s, id)
	return id, nil
}

// MustIntern is Intern for in-memory stores where appends cannot fail; it
// panics on error.
func (st *Store) MustIntern(s string) Ref {
	r, err := st.Intern(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Lookup resolves a reference back to its string without locking.
func (st *Store) Lookup(r Ref) (string, error) {
	t := st.table()
	if int(r) >= len(t) {
		return "", fmt.Errorf("strstore: dangling ref %d (table size %d)", r, len(t))
	}
	return t[r], nil
}

// Len returns the number of interned strings.
func (st *Store) Len() int {
	return len(st.table())
}

// Flush writes buffered appends to the backing file. After any append or
// sync failure the store fails stop (see Sync).
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.flushLocked()
}

func (st *Store) flushLocked() error {
	if st.w == nil {
		return nil
	}
	if st.failed != nil {
		return fmt.Errorf("strstore: store failed: %w", st.failed)
	}
	if err := st.w.Flush(); err != nil {
		st.failed = err
		return fmt.Errorf("strstore: flush: %w", err)
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the backing file so every
// interned string is durable. Callers must Sync the string table before
// syncing any log whose records hold refs into it — refs are positional,
// so a log record that outlives its string would dangle after recovery.
// A no-op when nothing was appended since the last Sync. A failed sync
// poisons the store: the kernel may have dropped the dirty pages, so later
// appends would build on data that never became durable.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil || !st.dirty {
		if st.failed != nil {
			return fmt.Errorf("strstore: store failed: %w", st.failed)
		}
		return nil
	}
	if err := st.flushLocked(); err != nil {
		return err
	}
	//aionlint:ignore lockio appends must not interleave with the fsync that orders the sticky fail-stop error; lookups are lock-free via the atomic table so only writers wait
	if err := st.f.Sync(); err != nil {
		st.failed = err
		return fmt.Errorf("strstore: sync: %w", err)
	}
	st.synced = st.size
	st.dirty = false
	return nil
}

// SyncedSize returns the byte extent of the backing file covered by the
// last successful Sync — the record-aligned prefix guaranteed to survive a
// crash. Replication ships only bytes below this mark.
func (st *Store) SyncedSize() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.synced
}

// ReadRange returns the exact bytes [from, to) of the backing file. The
// range must lie within the synced extent; unlike ReadRaw it is not
// record-aligned — tail-CRC verification compares positional bytes across
// nodes, so alignment is irrelevant.
func (st *Store) ReadRange(from, to int64) ([]byte, error) {
	st.mu.Lock()
	synced := st.synced
	f := st.f
	st.mu.Unlock()
	if f == nil {
		return nil, errors.New("strstore: in-memory store has no raw bytes")
	}
	if from < 0 || from > to || to > synced {
		return nil, fmt.Errorf("strstore: range [%d,%d) outside durable extent %d", from, to, synced)
	}
	buf := make([]byte, to-from)
	if to > from {
		if _, err := f.ReadAt(buf, from); err != nil {
			return nil, fmt.Errorf("strstore: range read at %d: %w", from, err)
		}
	}
	return buf, nil
}

// ReadRaw returns up to max bytes of whole records starting at byte offset
// off in the backing file. The returned chunk always ends on a record
// boundary; a single record larger than max is returned whole so a reader
// always makes progress. Only the synced region may be read — the bytes a
// replica ships must already be durable on the primary.
func (st *Store) ReadRaw(off int64, max int) ([]byte, error) {
	st.mu.Lock()
	synced := st.synced
	f := st.f
	st.mu.Unlock()
	if f == nil {
		return nil, errors.New("strstore: in-memory store has no raw bytes")
	}
	if off < 0 || off > synced {
		return nil, fmt.Errorf("strstore: raw offset %d out of durable range (synced %d)", off, synced)
	}
	if off == synced {
		return nil, nil
	}
	if max < 4 {
		max = 4
	}
	n := int64(max)
	if n > synced-off {
		n = synced - off
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("strstore: raw read at %d: %w", off, err)
	}
	// Trim to the last whole record in the chunk. The synced region is
	// record-aligned, so a cut can only fall mid-record when max did.
	pos := int64(0)
	for pos+4 <= n {
		rl := int64(binary.LittleEndian.Uint32(buf[pos:]))
		if pos+4+rl > n {
			break
		}
		pos += 4 + rl
	}
	if pos == 0 {
		// First record alone exceeds max: grow to return it whole.
		rl := int64(binary.LittleEndian.Uint32(buf))
		if off+4+rl > synced {
			return nil, fmt.Errorf("strstore: record at %d runs past durable extent %d", off, synced)
		}
		whole := make([]byte, 4+rl)
		if _, err := f.ReadAt(whole, off); err != nil {
			return nil, fmt.Errorf("strstore: raw read at %d: %w", off, err)
		}
		return whole, nil
	}
	return buf[:pos], nil
}

// AppendRaw ingests a chunk of whole records shipped from another store
// (replication): the bytes are appended verbatim to the backing file and
// each record's string is added to the in-memory table, preserving the
// positional references the shipped log records carry. The chunk must be
// exactly record-aligned; a misaligned chunk is rejected without touching
// the store. Durability follows the store's usual contract: call Sync
// before relying on the appended records.
func (st *Store) AppendRaw(chunk []byte) error {
	if len(chunk) == 0 {
		return nil
	}
	var recs []string
	for pos := 0; pos < len(chunk); {
		if pos+4 > len(chunk) {
			return fmt.Errorf("strstore: raw chunk cut mid-header at %d", pos)
		}
		rl := int(binary.LittleEndian.Uint32(chunk[pos:]))
		if pos+4+rl > len(chunk) {
			return fmt.Errorf("strstore: raw chunk cut mid-record at %d", pos)
		}
		recs = append(recs, string(chunk[pos+4:pos+4+rl]))
		pos += 4 + rl
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return fmt.Errorf("strstore: store failed: %w", st.failed)
	}
	cur := st.table()
	if len(cur)+len(recs) > MaxRef {
		return fmt.Errorf("strstore: table full (%d strings)", len(cur))
	}
	for _, s := range recs {
		if _, dup := st.ids.Load(s); dup {
			return fmt.Errorf("strstore: raw chunk re-interns %q; stream diverged", s)
		}
	}
	if st.w != nil {
		if _, err := st.w.Write(chunk); err != nil {
			st.failed = err
			return fmt.Errorf("strstore: raw append: %w", err)
		}
		st.size += int64(len(chunk))
		st.dirty = true
	}
	for _, s := range recs {
		st.ids.Store(s, Ref(len(cur)))
		cur = append(cur, s)
	}
	st.byID.Store(cur)
	return nil
}

// Close flushes and closes the backing file, if any.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	ferr := st.flushLocked()
	if ferr == nil && st.dirty {
		//aionlint:ignore lockio final fsync of a store being torn down; interning is over once Close holds the write lock
		if err := st.f.Sync(); err != nil {
			ferr = fmt.Errorf("strstore: sync: %w", err)
		} else {
			st.synced = st.size
		}
	}
	cerr := st.f.Close()
	st.f, st.w = nil, nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// DiskBytes reports the current byte size of the backing file (0 for
// in-memory stores); used by the Fig 10 storage accounting.
func (st *Store) DiskBytes() int64 {
	var n int64
	for _, s := range st.table() {
		n += 4 + int64(len(s))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return 0
	}
	return n
}
