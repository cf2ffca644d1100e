package store

// Durable storage for the versioned store: base snapshot files, boot
// recovery (snapshot load + WAL replay) and the snapshot/compaction
// cycle that keeps replay bounded. docs/PERSISTENCE.md specifies the
// recovery contract this file implements.
//
// A base snapshot file is
//
//	8-byte magic "TOPRRSN2"
//	payload:
//	  u64 generation · u64 op sequence watermark · u32 n · u32 d
//	  u32 reserved (written as 0, ignored on read)
//	  n × d × u64 float64 bits (row-major options)
//	u32 CRC-32 (IEEE) of the payload
//
// written to a temp file, fsynced and renamed into place, so a snapshot
// is either wholly present or absent. Files are named
// snap-<generation>.snap in zero-padded hex.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

const snapMagic = "TOPRRSN2"

// SyncMode selects the WAL durability level.
type SyncMode int

// The WAL sync modes: SyncAlways (the default) fsyncs every Apply
// before it returns, so an acknowledged batch survives both process and
// machine crashes. SyncNone leaves flushing to the OS page cache —
// faster, but acknowledged batches within the kernel's writeback window
// can be lost on a machine (not process) crash.
const (
	SyncAlways SyncMode = iota
	SyncNone
)

// String returns the flag name of the sync mode.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("sync(%d)", int(m))
	}
}

// ParseSyncMode maps a flag value to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("unknown sync mode %q (want always or none)", s)
	}
}

// PersistConfig configures a durable store. The zero value of every
// field but Dir is usable: defaults are applied by Open.
type PersistConfig struct {
	// Dir is the data directory holding the base snapshot and WAL
	// segments. It is created if absent.
	Dir string
	// Sync selects the WAL durability level (default SyncAlways).
	Sync SyncMode
	// CompactBytes triggers compaction once the WAL exceeds this many
	// bytes across segments (default 64 MiB).
	CompactBytes int64
	// CompactOps triggers compaction once this many ops accumulate in
	// the WAL (default 32768).
	CompactOps int
	// SegmentBytes rolls the active WAL segment past this size
	// (default 8 MiB).
	SegmentBytes int64
	// Shards is ignored. It is kept only because the toprrbench module
	// compiles against it.
	Shards int
}

// withDefaults fills the zero-valued knobs.
func (c PersistConfig) withDefaults() PersistConfig {
	if c.CompactBytes <= 0 {
		c.CompactBytes = 64 << 20
	}
	if c.CompactOps <= 0 {
		c.CompactOps = 1 << 15
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	return c
}

// PersistStats reports the durable layer's state for observability.
type PersistStats struct {
	Persistent     bool       // false for in-memory stores; the other fields are then zero
	WALBytes       int64      // on-disk WAL size across segments (replay cost bound)
	WALSegments    int        // segment count
	WALSyncs       int64      // fsyncs issued; group commit keeps this below the batches applied
	LastCompaction Generation // generation of the newest base snapshot
	// CompactError is the last failed maintenance cycle ("" when
	// healthy). A persistent error — say ENOSPC on the snapshot temp
	// file — means the WAL keeps growing past its thresholds and boot
	// replay cost is no longer bounded; the cycle retries on every
	// Apply.
	CompactError string
}

// PersistStats snapshots the durable layer's state.
func (s *Store) PersistStats() PersistStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.wal == nil {
		return PersistStats{}
	}
	ps := PersistStats{
		Persistent:     true,
		WALBytes:       s.wal.bytes(),
		WALSegments:    s.wal.segments(),
		WALSyncs:       s.wal.syncs(),
		LastCompaction: s.lastCompact,
	}
	if s.compactErr != nil {
		ps.CompactError = s.compactErr.Error()
	}
	return ps
}

// snapshotName names the base snapshot file of one generation.
func snapshotName(gen Generation) string {
	return fmt.Sprintf("snap-%016x.snap", uint64(gen))
}

// writeSnapshot atomically writes the option set as the base snapshot of
// generation gen with op-sequence watermark seq: temp file, fsync,
// rename, directory fsync. The reserved header field is written as 0.
func writeSnapshot(dir string, gen Generation, seq uint64, pts []vec.Vector) error {
	d := 0
	if len(pts) > 0 {
		d = pts[0].Dim()
	}
	payload := make([]byte, 8+8+4+4+4+len(pts)*d*8)
	le := binary.LittleEndian
	le.PutUint64(payload[0:], uint64(gen))
	le.PutUint64(payload[8:], seq)
	le.PutUint32(payload[16:], uint32(len(pts)))
	le.PutUint32(payload[20:], uint32(d))
	off := 28 // payload[24:28] is the reserved field, left 0
	for _, p := range pts {
		for _, x := range p {
			le.PutUint64(payload[off:], math.Float64bits(x))
			off += 8
		}
	}
	buf := make([]byte, 0, len(snapMagic)+len(payload)+4)
	buf = append(buf, snapMagic...)
	buf = append(buf, payload...)
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(payload))

	path := filepath.Join(dir, snapshotName(gen))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readSnapshot loads and checksums one base snapshot file. The reserved
// header field is ignored: directories written when it held a shard
// count open like any other.
func readSnapshot(path string) (gen Generation, seq uint64, pts []vec.Vector, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	const headerLen = 28
	if len(data) < len(snapMagic)+headerLen+4 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("%s: not a snapshot file", path)
	}
	le := binary.LittleEndian
	payload := data[len(snapMagic) : len(data)-4]
	sum := le.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, 0, nil, fmt.Errorf("%s: checksum mismatch", path)
	}
	gen = Generation(le.Uint64(payload[0:]))
	seq = le.Uint64(payload[8:])
	n := int(le.Uint32(payload[16:]))
	d := int(le.Uint32(payload[20:]))
	// Bound each factor by the payload before multiplying, so a corrupt
	// (but CRC-colliding) header can neither overflow the size check nor
	// drive a giant allocation.
	rest := len(payload) - headerLen
	if n <= 0 || d <= 0 || d > rest/8 || n != rest/(d*8) || rest%(d*8) != 0 {
		return 0, 0, nil, fmt.Errorf("%s: malformed shape n=%d d=%d (%d payload bytes)", path, n, d, len(payload))
	}
	pts = make([]vec.Vector, n)
	off := headerLen
	for i := range pts {
		p := vec.New(d)
		for j := 0; j < d; j++ {
			p[j] = math.Float64frombits(le.Uint64(payload[off:]))
			off += 8
		}
		pts[i] = p
	}
	return gen, seq, pts, nil
}

// listSnapshots returns the directory's base snapshot paths, newest
// generation first.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isSnapshotName(name) {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths, nil
}

// isSnapshotName reports whether a file name is a base snapshot's.
func isSnapshotName(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")
}

// HasState reports whether dir already holds a recoverable store (a
// base snapshot), in which case Open ignores its bootstrap dataset.
// A missing directory is simply empty state. The files are not
// validated here; Open does that.
func HasState(dir string) (bool, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	return len(snaps) > 0, nil
}

// Open opens (or initializes) a durable store in cfg.Dir.
//
// When the directory already holds state, the dataset is recovered from
// it — the newest valid base snapshot, plus a replay of every complete
// WAL batch after it — and boot is ignored (it may be nil). A torn
// record ends replay: the tear is truncated away and the store resumes
// at the last complete batch, exactly as the recovery contract
// specifies. When the directory is empty, boot seeds generation 1 and
// is written out as the first base snapshot before Open returns.
//
// The caller must Close the store to release the WAL; a crash instead
// of a Close loses nothing that Apply acknowledged under SyncAlways.
func Open(cfg PersistConfig, boot []vec.Vector) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: open: empty data directory")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// One process owns a data directory at a time: a second opener would
	// truncate and append the same segments the first is writing,
	// interleaving two histories. The flock is released by the kernel on
	// any process death, so a crash never bricks the directory.
	lock, err := os.OpenFile(filepath.Join(cfg.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: open: %s is already in use by another store (flock: %v)", cfg.Dir, err)
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()

	// Sweep temp files a crash left mid-snapshot: the rename is the
	// commit point, so a *.tmp is never valid state — without the sweep,
	// each crash-during-compaction would orphan a dataset-sized file.
	if tmps, err := filepath.Glob(filepath.Join(cfg.Dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}

	s := &Store{cfg: cfg, gc: &gcCounters{}, lock: lock}
	rs := &replayer{}
	snaps, err := listSnapshots(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if len(snaps) == 0 {
		// Fresh directory: seed from boot and make generation 1 durable.
		// Refuse if WAL segments survive without any snapshot (an
		// operator deleted the snapshots, or disk damage took them):
		// their index-based ops belong to a dataset we no longer have,
		// and replaying them onto an unrelated bootstrap would silently
		// corrupt it.
		if stale, err := listSegments(cfg.Dir); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		} else if len(stale) > 0 {
			return nil, fmt.Errorf("store: open: %s holds %d WAL segment(s) but no base snapshot; refusing to bootstrap over them (remove the wal-*.seg files to reset)", cfg.Dir, len(stale))
		}
		own, err := checkDataset(boot)
		if err != nil {
			return nil, fmt.Errorf("store: open: empty directory needs a bootstrap dataset: %w", err)
		}
		if err := writeSnapshot(cfg.Dir, 1, 0, own); err != nil {
			return nil, fmt.Errorf("store: open: base snapshot: %w", err)
		}
		rs.pts, rs.gen = own, 1
		s.lastCompact = 1
	} else {
		// Recover from the newest snapshot that checksums; an older one
		// only wins if the newest is unreadable (a snapshot rename is
		// atomic, so this is disk damage, not a crash artifact).
		var firstErr error
		for _, path := range snaps {
			gen, seq, pts, err := readSnapshot(path)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			rs.pts, rs.gen, rs.seq = pts, gen, seq
			s.lastCompact = gen
			break
		}
		if rs.pts == nil {
			return nil, fmt.Errorf("store: open: no readable snapshot: %w", firstErr)
		}
	}
	rs.d = rs.pts[0].Dim()

	// Replay the WAL on top of the snapshot. Records at or below the
	// snapshot generation are already folded in (segments a crashed
	// compaction failed to delete) and are skipped.
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	for i := range segs {
		valid, torn, err := scanSegment(segs[i].path, rs.apply)
		if err != nil {
			return nil, fmt.Errorf("store: open: replay %s: %w", segs[i].path, err)
		}
		if !torn {
			continue
		}
		if i != len(segs)-1 {
			// Appends are sequential and a segment is fsynced before its
			// successor is created, so a genuine crash tear can only live
			// in the final segment. Damage earlier is corruption of
			// acknowledged, fsynced batches — truncating here would
			// silently amputate every later segment, so refuse and leave
			// the files for the operator.
			return nil, fmt.Errorf("store: open: %s is corrupt mid-WAL (a tear can only be in the last segment); refusing to drop acknowledged batches", segs[i].path)
		}
		// Torn tail of the final segment: the crash point.
		if valid < int64(len(walMagic)) {
			// The tear ate the segment's own magic: appending to the
			// truncated file would put records before a valid header and
			// the *next* boot would discard them all. Drop the file; a
			// fresh, well-formed segment replaces it below.
			if err := os.Remove(segs[i].path); err != nil {
				return nil, fmt.Errorf("store: open: %w", err)
			}
			segs = segs[:i]
		} else {
			if err := os.Truncate(segs[i].path, valid); err != nil {
				return nil, fmt.Errorf("store: open: truncate %s: %w", segs[i].path, err)
			}
			segs[i].size = valid
		}
		// Make the removal/truncation durable before any append: a
		// machine crash must not resurrect the discarded tail next to
		// records written after this recovery.
		if err := syncDir(cfg.Dir); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		break
	}

	// Publish the single recovered generation: one scorer, tracked once,
	// however many batches replayed.
	s.snap = Snapshot{Gen: rs.gen, Scorer: s.track(topk.NewScorerAt(rs.pts, uint64(rs.gen)))}
	s.seq = rs.seq
	s.log = rs.log
	s.walOps = rs.ops
	s.initWritePath()

	w, err := openWAL(cfg.Dir, segs, rs.gen+1, cfg.Sync == SyncAlways)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s.wal = w
	ok = true
	return s, nil
}

// replayer accumulates boot replay over one working slice, so recovery
// costs O(replayed ops), not O(batches × dataset size): no per-batch
// copy-on-write copy and no per-batch scorer — the recovered generation
// is built once, after the last record. apply skips batches the base
// snapshot already covers and rejects generation gaps (a missing or
// reordered segment, or a fallback to an older base snapshot) and
// validation failures on checksummed data. A rejection fails Open
// rather than truncating: the bytes are intact, so this is not a torn
// tail recovery may cut away — the WAL is left untouched for the
// operator.
type replayer struct {
	pts []vec.Vector
	d   int
	gen Generation
	seq uint64
	ops int // ops replayed; seeds the store's walOps
	log []AppliedOp
}

func (r *replayer) apply(gen Generation, firstSeq uint64, ops []Op) error {
	if gen <= r.gen {
		return nil
	}
	if gen != r.gen+1 {
		return fmt.Errorf("generation %d follows %d", gen, r.gen)
	}
	for i, op := range ops {
		var rec AppliedOp
		pts, err := applyOp(r.pts, r.d, i, op, &rec, nil)
		if err != nil {
			return err
		}
		r.pts = pts
		rec.Seq = firstSeq + uint64(i)
		rec.Gen = gen
		r.log = append(r.log, rec)
	}
	if len(r.log) > logLimit {
		r.log = append([]AppliedOp(nil), r.log[len(r.log)-logLimit/2:]...)
	}
	r.gen = gen
	r.seq = firstSeq + uint64(len(ops)) - 1
	r.ops += len(ops)
	return nil
}

// maintain runs post-Apply WAL maintenance: a snapshot/compaction cycle
// once the byte/op thresholds are crossed, otherwise a segment roll when
// the active segment is past its size. Failures land in compactErr
// (surfaced as PersistStats.CompactError) but never fail the Apply that
// triggered them — the batch is already durable in the WAL — and the
// cycle retries on the next Apply; compactErr clears only when a full
// cycle succeeds.
//
// maintain is called with writeMu held, which owns every WAL file
// operation and excludes concurrent appends; the store's read lock is
// taken only for the instantaneous watermark capture and bookkeeping,
// so readers never stall on the snapshot fsync (it serializes only the
// writers, who wait behind writeMu anyway). Because no append can land
// mid-cycle, the current generation covers every record on disk, and
// the cycle is:
//
//  1. capture the current snapshot as the watermark;
//  2. write the watermark generation as the new base snapshot (atomic
//     temp + rename + directory fsync) from the immutable copy-on-write
//     option slice;
//  3. drop the sealed segments, restart the active one, drop older
//     snapshot files, and advance the compaction watermark.
//
// A crash between the steps is safe in both directions: snapshot-first
// leaves stale segments whose records replay as no-ops, crash-before-
// snapshot leaves the old snapshot plus a longer WAL. A failed cycle
// changes no bookkeeping, so the next Apply retries the whole cycle —
// without creating any new segment file per retry.
func (s *Store) maintain() {
	if s.wal.broken != nil {
		return
	}
	setErr := func(err error) {
		s.mu.Lock()
		s.compactErr = err
		s.mu.Unlock()
	}

	if s.wal.bytes() < s.cfg.CompactBytes && s.walOps < s.cfg.CompactOps {
		if s.wal.activeSize() >= s.cfg.SegmentBytes {
			s.mu.RLock()
			gen := s.snap.Gen
			s.mu.RUnlock()
			if err := s.wal.roll(gen + 1); err != nil {
				setErr(fmt.Errorf("store: wal roll: %w", err))
			} else {
				// Below the compaction thresholds the last compaction
				// necessarily succeeded, so a successful roll means the
				// durable layer is healthy again: clear any stale error.
				setErr(nil)
			}
		}
		return
	}

	// Compaction deletes WAL records, so the base snapshot must cover
	// every record on disk. We hold writeMu — no new batch can be built
	// or appended — but group-committed batches may still be between
	// their fsync and their publish; wait them out so the published
	// snapshot is the WAL tail.
	s.drainPending()
	s.mu.RLock()
	snap, seq := s.snap, s.seq
	s.mu.RUnlock()

	sealed := s.wal.sealedCount()
	opsCovered := s.walOps
	if err := writeSnapshot(s.cfg.Dir, snap.Gen, seq, snap.Scorer.Points()); err != nil {
		setErr(fmt.Errorf("store: compact: snapshot: %w", err))
		return
	}
	// The snapshot is durable and covers every record on disk: the
	// sealed segments go, and the active one restarts empty.
	if err := s.wal.dropSealed(sealed); err != nil {
		setErr(fmt.Errorf("store: compact: drop segments: %w", err))
		return
	}
	// The cycle is now committed — the watermark and replay cost moved
	// even if the cosmetic steps below fail — so the bookkeeping
	// advances here, not after them.
	s.walOps -= opsCovered
	s.mu.Lock()
	s.lastCompact = snap.Gen
	s.compactErr = nil
	s.mu.Unlock()
	if snaps, err := listSnapshots(s.cfg.Dir); err == nil {
		for _, path := range snaps {
			if path != filepath.Join(s.cfg.Dir, snapshotName(snap.Gen)) {
				os.Remove(path)
			}
		}
	}
	// Restart the active segment empty; on failure it keeps serving
	// appends (its stale records replay as no-ops) and the restart
	// retries on a later roll or cycle.
	if err := s.wal.restartActive(snap.Gen + 1); err != nil {
		setErr(fmt.Errorf("store: compact: restart segment: %w", err))
	}
}
