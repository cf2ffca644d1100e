package store

// The write-ahead-log codec. A WAL segment file is
//
//	8-byte magic "TOPRRWL1"
//	zero or more records
//
// and one record encodes exactly one Apply batch (so batch atomicity
// survives a crash — a batch is either wholly on disk or not at all):
//
//	u32  payload length
//	u32  CRC-32 (IEEE) of the payload
//	payload:
//	  u64 generation the batch published
//	  u64 sequence number of the batch's first op
//	  u32 op count
//	  per op: u8 kind · u32 index · u32 point dim · dim × u64 float bits
//
// All integers are little-endian. Deletes carry dim 0; inserts carry
// index 0. A record is *torn* when the file ends inside the header or
// payload, or the checksum mismatches; recovery truncates the segment
// to the end of the last complete record (see persist.go).
//
// Segments are named wal-<first-generation>.seg with the generation in
// zero-padded hex, so the lexicographic file order is the replay order.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"toprr/internal/vec"
)

const (
	walMagic      = "TOPRRWL1"
	walHeaderSize = 8 // u32 length + u32 crc
	// maxRecordBytes rejects absurd lengths from corrupt headers before
	// they become allocations.
	maxRecordBytes = 1 << 30
)

// segmentName names the WAL segment whose first record publishes gen.
func segmentName(gen Generation) string {
	return fmt.Sprintf("wal-%016x.seg", uint64(gen))
}

// encodeBatch serializes one applied batch as a WAL record payload. recs
// carry the store's own cloned point vectors, so the encoded bytes are
// immune to caller mutation.
func encodeBatch(gen Generation, firstSeq uint64, recs []AppliedOp) []byte {
	// Deletes carry no payload on the wire (dim 0), whatever their
	// in-memory Op holds.
	dim := func(r AppliedOp) int {
		if r.Op.Kind == OpDelete {
			return 0
		}
		return len(r.Op.Point)
	}
	n := 8 + 8 + 4
	for _, r := range recs {
		n += 1 + 4 + 4 + dim(r)*8
	}
	buf := make([]byte, n)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(gen))
	le.PutUint64(buf[8:], firstSeq)
	le.PutUint32(buf[16:], uint32(len(recs)))
	off := 20
	for _, r := range recs {
		buf[off] = byte(r.Op.Kind)
		le.PutUint32(buf[off+1:], uint32(r.Op.Index))
		le.PutUint32(buf[off+5:], uint32(dim(r)))
		off += 9
		for _, x := range r.Op.Point[:dim(r)] {
			le.PutUint64(buf[off:], math.Float64bits(x))
			off += 8
		}
	}
	return buf
}

// decodeBatch parses one WAL record payload back into its op batch.
func decodeBatch(p []byte) (gen Generation, firstSeq uint64, ops []Op, err error) {
	le := binary.LittleEndian
	if len(p) < 20 {
		return 0, 0, nil, fmt.Errorf("payload %d bytes, want >= 20", len(p))
	}
	gen = Generation(le.Uint64(p[0:]))
	firstSeq = le.Uint64(p[8:])
	nops := int(le.Uint32(p[16:]))
	// Each op takes at least 9 payload bytes, so the claimed count is
	// bounded by the payload actually present — before any allocation.
	if nops < 0 || nops > (len(p)-20)/9 {
		return 0, 0, nil, fmt.Errorf("op count %d exceeds payload", nops)
	}
	ops = make([]Op, 0, nops)
	off := 20
	for i := 0; i < nops; i++ {
		if len(p)-off < 9 {
			return 0, 0, nil, fmt.Errorf("op %d: truncated header", i)
		}
		kind := OpKind(p[off])
		index := int(le.Uint32(p[off+1:]))
		dim := int(le.Uint32(p[off+5:]))
		off += 9
		if dim > (len(p)-off)/8 {
			return 0, 0, nil, fmt.Errorf("op %d: truncated point (dim %d)", i, dim)
		}
		var pt vec.Vector
		if dim > 0 {
			pt = vec.New(dim)
			for j := 0; j < dim; j++ {
				pt[j] = math.Float64frombits(le.Uint64(p[off:]))
				off += 8
			}
		}
		switch kind {
		case OpInsert, OpDelete, OpUpdate:
		default:
			return 0, 0, nil, fmt.Errorf("op %d: unknown kind %d", i, int(kind))
		}
		ops = append(ops, Op{Kind: kind, Index: index, Point: pt})
	}
	if off != len(p) {
		return 0, 0, nil, fmt.Errorf("%d trailing bytes", len(p)-off)
	}
	return gen, firstSeq, ops, nil
}

// segmentInfo is one on-disk WAL segment.
type segmentInfo struct {
	path string
	size int64
}

// listSegments returns the directory's WAL segments in replay
// (lexicographic, i.e. first-generation) order.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isSegmentName(name) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].path < segs[j].path })
	return segs, nil
}

// isSegmentName reports whether a file name is a WAL segment's.
func isSegmentName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")
}

// scanSegment iterates the complete, checksummed records of one segment,
// calling fn for each. It returns the offset of the end of the last good
// record — the size the file must be truncated to when torn — and
// whether the tail is torn (short magic/header/payload, checksum
// mismatch, or an undecodable payload). A record that checksums and
// decodes but is *rejected by fn* is different: the bytes are intact, so
// this is not a crash artifact recovery may truncate away — it is
// surfaced as a fatal err (as are I/O failures) and the file is left
// untouched for inspection.
func scanSegment(path string, fn func(gen Generation, firstSeq uint64, ops []Op) error) (valid int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		// The crash landed inside the 8-byte magic itself; nothing in the
		// file is usable.
		return 0, true, nil
	}
	le := binary.LittleEndian
	off := int64(len(walMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, false, nil
		}
		if len(rest) < walHeaderSize {
			return off, true, nil
		}
		length := int64(le.Uint32(rest[0:]))
		sum := le.Uint32(rest[4:])
		if length > maxRecordBytes || int64(len(rest))-walHeaderSize < length {
			return off, true, nil
		}
		payload := rest[walHeaderSize : walHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, true, nil
		}
		gen, firstSeq, ops, err := decodeBatch(payload)
		if err != nil {
			return off, true, nil
		}
		if fn != nil {
			if err := fn(gen, firstSeq, ops); err != nil {
				return off, false, fmt.Errorf("%s: record at offset %d: %w", path, off, err)
			}
		}
		off += walHeaderSize + length
	}
}

// syncDir fsyncs a directory so a just-created or just-renamed file name
// is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// walWriter appends batch records to the active WAL segment and tracks
// the sealed ones. File writes (f, broken) are serialized by the
// store's writer lock, NOT self-locked; the size/segment metadata
// carries its own mutex so stats readers can observe it while an append
// is in flight.
//
// Fsyncs are group-committed: append writes the record and returns a
// monotone ticket without syncing; waitSync (called after the writer
// lock is released) blocks until a sync covers the ticket. Concurrent
// callers elect one leader, whose single fsync covers every record
// appended before it started, so N concurrent Apply batches pay one
// disk flush instead of N — they coalesce instead of serializing on the
// platter. Single-caller behavior is unchanged: its own waitSync leads
// and syncs its own record. Segment swaps (roll, restart, close) first
// quiesce the group: they wait out an in-flight leader, sync the active
// file themselves and advance the watermark past every append, so no
// leader ever syncs a closed file and no waiter is left behind.
type walWriter struct {
	dir    string
	f      *os.File
	path   string
	always bool  // group-commit fsync per batch (SyncAlways)
	broken error // first append/sync failure; sticky so a half-written tail is never appended past

	appendSeq atomic.Uint64 // tickets: records appended so far
	syncCount atomic.Int64  // fsyncs issued (observability: PersistStats.WALSyncs)

	gcMu      sync.Mutex // group-commit state below
	gcCond    *sync.Cond
	syncedSeq uint64 // ticket watermark made durable
	syncing   bool   // a leader's fsync is in flight
	gcErr     error  // first sync failure; sticky

	mu     sync.Mutex // guards size and sealed (metadata for stats readers)
	size   int64      // bytes of the active segment, magic included
	sealed []segmentInfo
}

// openWAL opens a writer over the directory's existing segments (segs,
// already truncated to their valid sizes by recovery), appending to the
// last one, or starting a fresh segment named for nextGen when none
// exist.
func openWAL(dir string, segs []segmentInfo, nextGen Generation, always bool) (*walWriter, error) {
	w := &walWriter{dir: dir, always: always}
	w.gcCond = sync.NewCond(&w.gcMu)
	if len(segs) == 0 {
		if err := w.openSegment(nextGen); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w.f, w.path, w.size = f, last.path, last.size
	w.sealed = append(w.sealed, segs[:len(segs)-1]...)
	return w, nil
}

// openSegment creates a fresh active segment and makes its name durable.
// On failure the writer is untouched (the half-created file is removed),
// so callers can keep using the previous segment.
func (w *walWriter) openSegment(gen Generation) error {
	path := filepath.Join(w.dir, segmentName(gen))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := syncDir(w.dir); err != nil {
		return fail(err)
	}
	w.f, w.path = f, path
	w.mu.Lock()
	w.size = int64(len(walMagic))
	w.mu.Unlock()
	return nil
}

// append writes one record (header + payload) to the active segment —
// without syncing — and returns the record's group-commit ticket; under
// SyncAlways the caller must waitSync the ticket (after releasing the
// writer lock) before treating the batch as durable. The first failure
// is sticky: a partial tail may be on disk, so further appends would
// land after garbage and are refused until the store reopens (recovery
// truncates the tear). A sticky group-sync failure likewise breaks the
// writer: records after a failed flush would be acknowledged on top of
// an undurable prefix.
func (w *walWriter) append(payload []byte) (uint64, error) {
	if w.broken != nil {
		return 0, w.broken
	}
	w.gcMu.Lock()
	gcErr := w.gcErr
	w.gcMu.Unlock()
	if gcErr != nil {
		w.broken = gcErr
		return 0, gcErr
	}
	rec := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	copy(rec[walHeaderSize:], payload)
	if _, err := w.f.Write(rec); err != nil {
		w.broken = err
		return 0, err
	}
	ticket := w.appendSeq.Add(1)
	w.mu.Lock()
	w.size += int64(len(rec))
	w.mu.Unlock()
	return ticket, nil
}

// waitSync blocks until a group fsync covers ticket (a no-op unless the
// writer runs SyncAlways). The first caller to find no sync in flight
// becomes the leader: it snapshots the append watermark, fsyncs once
// outside the lock, and wakes every waiter the flush covered — however
// many batches queued behind it. Waiters whose ticket is already under
// the watermark return without touching the disk at all. A sync failure
// is sticky and fails every waiter above the watermark.
func (w *walWriter) waitSync(ticket uint64) error {
	if !w.always {
		return nil
	}
	w.gcMu.Lock()
	defer w.gcMu.Unlock()
	for {
		if w.syncedSeq >= ticket {
			return nil
		}
		if w.gcErr != nil {
			return w.gcErr
		}
		if w.syncing {
			w.gcCond.Wait()
			continue
		}
		w.syncing = true
		// Everything appended before the fsync starts is covered by it.
		// The leader's own append happened-after any segment swap (both
		// order through the store's writer lock), so f is stable here.
		target := w.appendSeq.Load()
		f := w.f
		w.gcMu.Unlock()
		err := f.Sync()
		w.syncCount.Add(1)
		w.gcMu.Lock()
		w.syncing = false
		if err != nil {
			if w.gcErr == nil {
				w.gcErr = err
			}
		} else if target > w.syncedSeq {
			w.syncedSeq = target
		}
		w.gcCond.Broadcast()
	}
}

// quiesce drains the group-commit machinery before a segment swap: it
// waits out an in-flight leader, syncs the active file itself (holding
// the leader slot so no new fsync can race the swap), and advances the
// watermark past every append — the caller holds the writer lock, so no
// new records can arrive and every present or future waiter is
// satisfied without touching the old file.
func (w *walWriter) quiesce() error {
	w.gcMu.Lock()
	for w.syncing {
		w.gcCond.Wait()
	}
	w.syncing = true
	w.gcMu.Unlock()
	err := w.f.Sync()
	w.syncCount.Add(1)
	w.gcMu.Lock()
	w.syncing = false
	if err != nil {
		if w.gcErr == nil {
			w.gcErr = err
		}
	} else if t := w.appendSeq.Load(); t > w.syncedSeq {
		w.syncedSeq = t
	}
	w.gcCond.Broadcast()
	w.gcMu.Unlock()
	return err
}

// syncs reports the fsyncs issued so far; with group commit this can be
// far below the batches appended.
func (w *walWriter) syncs() int64 { return w.syncCount.Load() }

// roll seals the active segment and starts a fresh one named for gen.
// The new segment opens before the old one closes, so a failed roll
// leaves the writer on the old, still-open segment and appends keep
// working (the roll retries on a later maintenance cycle).
func (w *walWriter) roll(gen Generation) error {
	if err := w.quiesce(); err != nil {
		return err
	}
	oldF, oldPath := w.f, w.path
	w.mu.Lock()
	oldSize := w.size
	w.mu.Unlock()
	if err := w.openSegment(gen); err != nil {
		return err
	}
	oldF.Close()
	w.mu.Lock()
	w.sealed = append(w.sealed, segmentInfo{path: oldPath, size: oldSize})
	w.mu.Unlock()
	return nil
}

// sealedCount reports how many segments are sealed right now.
func (w *walWriter) sealedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed)
}

// activeSize reports the active segment's current size.
func (w *walWriter) activeSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// restartActive replaces the active segment with a fresh, empty one
// named for gen, removing the old file. Compaction calls it once the
// base snapshot covering the active segment's records is durable. Like
// roll, the new segment opens before the old closes, so a failure
// leaves the writer appending to the old segment.
func (w *walWriter) restartActive(gen Generation) error {
	oldF, oldPath := w.f, w.path
	if err := w.openSegment(gen); err != nil {
		return err
	}
	oldF.Close()
	if err := os.Remove(oldPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(w.dir)
}

// dropSealed removes the n oldest sealed segments from disk. Compaction
// calls it once the base snapshot covering them is durable. Already-gone
// files are tolerated so a partially failed drop retries cleanly.
func (w *walWriter) dropSealed(n int) error {
	w.mu.Lock()
	drop := append([]segmentInfo(nil), w.sealed[:n]...)
	w.mu.Unlock()
	for _, seg := range drop {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	w.mu.Lock()
	w.sealed = append(w.sealed[:0], w.sealed[n:]...)
	w.mu.Unlock()
	return syncDir(w.dir)
}

// bytes reports the total on-disk WAL size across all segments.
func (w *walWriter) bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.size
	for _, seg := range w.sealed {
		n += seg.size
	}
	return n
}

// segments reports the number of on-disk WAL segments.
func (w *walWriter) segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// close syncs (draining any in-flight group commit) and closes the
// active segment.
func (w *walWriter) close() error {
	if err := w.quiesce(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
