package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Generation numbers dataset versions. The first published generation is
// 1; 0 means "no generation".
type Generation uint64

// OpKind discriminates dataset mutations.
type OpKind int

// The three dataset mutations.
const (
	OpInsert OpKind = iota // append a new option
	OpDelete               // remove option Index (swap-with-last)
	OpUpdate               // replace option Index with Point
)

// String returns the wire name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one dataset mutation. Index addresses the dataset as it stands
// when the op applies — within a batch, after the preceding ops of the
// same batch.
type Op struct {
	Kind  OpKind
	Index int        // Delete/Update target
	Point vec.Vector // Insert/Update payload
}

// Insert builds an op appending option p.
func Insert(p vec.Vector) Op { return Op{Kind: OpInsert, Point: p} }

// Delete builds an op removing option i (the last option moves into
// slot i).
func Delete(i int) Op { return Op{Kind: OpDelete, Index: i} }

// Update builds an op replacing option i with p.
func Update(i int, p vec.Vector) Op { return Op{Kind: OpUpdate, Index: i, Point: p} }

// AppliedOp is one entry of the store's op log.
type AppliedOp struct {
	Seq   uint64     // 1-based position in the log
	Gen   Generation // generation the op's batch produced
	Op    Op
	Moved int // Delete: former index of the option moved into the freed slot (-1 otherwise)
}

// Snapshot is an immutable view of one generation: readers solve against
// Scorer and never observe later mutations.
type Snapshot struct {
	Gen    Generation
	Scorer *topk.Scorer
}

// Delta reports the cache-relevant effect of one Apply: the
// old-generation slots whose identity changed (updated in place, swapped
// by a delete, truncated, or re-populated by a later insert). Slots not
// listed hold the same option in both generations, so per-pair and
// per-subset cache entries avoiding the dirty slots stay valid.
// Whole-dataset ("all options active") entries are invalidated by any
// op, since every op changes dataset membership.
type Delta struct {
	From, To Generation
	Dirty    []int

	// Kind classifies the batch so consumers can pick a repair strategy
	// per delta: a pure-insert batch permits patch-on-insert cache
	// repair (topk.Registry.AdvanceInsert), anything that deletes,
	// updates or truncates requires the drop path.
	Kind DeltaKind

	// Inserted lists the new tail slots [oldLen, newLen) in ascending
	// order when Kind is DeltaInsertOnly, nil otherwise. It is the exact
	// argument AdvanceInsert's contract asks for — unlike Dirty, whose
	// order follows map iteration.
	Inserted []int
}

// DeltaKind classifies one Apply batch for cache repair.
type DeltaKind int

const (
	// DeltaEmpty: no ops; the generation did not move.
	DeltaEmpty DeltaKind = iota
	// DeltaInsertOnly: every op was an insert — existing slots are
	// bit-identical across the two generations and the new options
	// occupy the tail slots listed in Inserted.
	DeltaInsertOnly
	// DeltaReshape: the batch deleted, updated or mixed ops — some
	// existing slot changed identity and caches must take the drop path
	// for the dirty slots.
	DeltaReshape
)

// String names the kind for logs and metrics.
func (k DeltaKind) String() string {
	switch k {
	case DeltaEmpty:
		return "empty"
	case DeltaInsertOnly:
		return "insert-only"
	default:
		return "reshape"
	}
}

// logLimit bounds the retained in-memory op log; beyond it the oldest
// entries are discarded (Log reports the surviving suffix). Durability
// does not depend on this limit — the WAL retains every batch since the
// last compaction.
const logLimit = 1 << 14

// ErrClosed is returned by Apply after Close.
var ErrClosed = errors.New("store: closed")

// ErrDurability marks Apply failures where the batch validated fine but
// could not be made durable (a WAL write or fsync error): the store is
// unchanged and the fault is the server's disk, not the caller's
// request. Detect it with errors.Is.
var ErrDurability = errors.New("store: durability failure")

// Store is a generation-numbered dataset store. Reads (Snapshot, Len,
// Log) and writes (Apply) may run concurrently; writers serialize among
// themselves on validation and the WAL append, but under SyncAlways
// they *coalesce* on the fsync: concurrent Apply batches group-commit
// behind one shared flush instead of each paying its own (see
// walWriter.waitSync), and then publish strictly in generation order.
// A store built by New is in-memory; one built by Open also
// write-ahead-logs every batch and compacts the log into base snapshots
// (see persist.go).
//
// Lock discipline: writeMu serializes batch building and WAL appends
// (and owns every WAL file operation except the group fsync); mu guards
// the published state (snap, seq, log, closed) and is held only for
// quick reads and the publish step — never across disk I/O — so readers
// never stall behind a writer's fsync or a compaction. pubMu guards the
// publish-ordering gate (the built-but-unpublished backlog). writeMu is
// never acquired while holding the others.
type Store struct {
	writeMu sync.Mutex // serializes writers; owns WAL I/O (held before mu)

	// tail is the last *built* batch's state (guarded by writeMu). With
	// group commit it can run ahead of the published snapshot while
	// batches wait on the shared fsync; builds stack on the tail so WAL
	// order equals generation order.
	tail struct {
		pts []vec.Vector
		gen Generation
		seq uint64
	}

	// Publish-ordering gate: batches become visible strictly in
	// generation order, however their fsync waits interleave.
	pubMu     sync.Mutex
	pubCond   *sync.Cond
	published Generation // last generation made visible to readers
	pending   int        // built-but-unpublished batches

	mu   sync.RWMutex
	snap Snapshot
	seq  uint64 // total ops ever applied
	log  []AppliedOp

	// Durable layer; wal == nil for in-memory stores. The wal pointer is
	// set once at Open; its file handle is writeMu-guarded.
	cfg         PersistConfig
	wal         *walWriter
	lock        *os.File   // flock on the data directory (released on Close or process death)
	walOps      int        // ops in the WAL since the last compaction (writeMu)
	lastCompact Generation // generation of the newest base snapshot (mu)
	compactErr  error      // last failed maintenance cycle, retried on the next Apply (mu)
	closed      bool

	// Snapshot GC observability: finalizer-driven counters of scorer
	// generations still reachable (the current one plus any pinned by
	// in-flight solves or leaked snapshots). Kept behind a pointer so
	// scorer finalizers capture only the counters, never the Store — a
	// finalizer closing over s would form a cycle (scorer → finalizer →
	// Store → current scorer) that the runtime never collects, leaking
	// every discarded store with its final dataset.
	gc *gcCounters
}

// gcCounters is the finalizer-updated half of GCStats.
type gcCounters struct {
	live     atomic.Int64
	retained atomic.Int64
}

// New builds an in-memory store over an initial dataset of options in
// [0,1]^d, published as generation 1. The slice is copied; the vectors
// are adopted as-is and must not be mutated afterwards. For a durable
// store, use Open.
func New(pts []vec.Vector) (*Store, error) {
	own, err := checkDataset(pts)
	if err != nil {
		return nil, err
	}
	s := &Store{gc: &gcCounters{}}
	s.snap = Snapshot{Gen: 1, Scorer: s.track(topk.NewScorerAt(own, 1))}
	s.initWritePath()
	return s, nil
}

// initWritePath seeds the build tail and publish gate from the current
// snapshot; constructors call it once the recovered/bootstrapped state
// is in place.
func (s *Store) initWritePath() {
	s.pubCond = sync.NewCond(&s.pubMu)
	s.tail.pts = s.snap.Scorer.Points()
	s.tail.gen = s.snap.Gen
	s.tail.seq = s.seq
	s.published = s.snap.Gen
}

// CheckDataset validates an initial dataset — non-empty, consistent
// dimensions, every component finite and in [0,1] — without adopting
// it, so a front end can reject a bad bootstrap as the caller's error
// before any store I/O starts.
func CheckDataset(pts []vec.Vector) error {
	_, err := checkDataset(pts)
	return err
}

// checkDataset validates an initial dataset and returns a private copy
// of the slice.
func checkDataset(pts []vec.Vector) ([]vec.Vector, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("store: empty dataset")
	}
	d := pts[0].Dim()
	for i, p := range pts {
		if err := checkPoint(p, d); err != nil {
			return nil, fmt.Errorf("store: option %d: %w", i, err)
		}
	}
	return append([]vec.Vector(nil), pts...), nil
}

// checkPoint validates one option payload.
func checkPoint(p vec.Vector, d int) error {
	if p.Dim() != d {
		return fmt.Errorf("dimension %d, want %d", p.Dim(), d)
	}
	for j, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("component %d is not finite", j)
		}
		if x < 0 || x > 1 {
			return fmt.Errorf("component %d = %v outside [0,1]", j, x)
		}
	}
	return nil
}

// track registers a published generation's scorer with the GC
// observability counters; the finalizer decrements them once the last
// pin drops and the garbage collector reclaims the snapshot. The byte
// figure is an upper bound: copy-on-write generations share unchanged
// vectors, which are counted once per live generation here. The
// finalizer deliberately captures only the counters struct, not the
// Store (see the gc field comment).
func (s *Store) track(sc *topk.Scorer) *topk.Scorer {
	g := s.gc
	bytes := int64(sc.Len()) * (int64(sc.Dim())*8 + 24)
	g.live.Add(1)
	g.retained.Add(bytes)
	runtime.SetFinalizer(sc, func(*topk.Scorer) {
		g.live.Add(-1)
		g.retained.Add(-bytes)
	})
	return sc
}

// GCStats reports how many generation snapshots are still reachable and
// an upper bound on the bytes they retain. A live count that keeps
// growing while mutations flow marks leaked pins (snapshots held
// forever); the counters move when the garbage collector actually
// reclaims a generation, so they trail drops by one GC cycle.
func (s *Store) GCStats() (liveGenerations int, retainedBytes int64) {
	return int(s.gc.live.Load()), s.gc.retained.Load()
}

// Snapshot returns the current generation's immutable view.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap
}

// Generation returns the current generation number.
func (s *Store) Generation() Generation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap.Gen
}

// Len returns the current number of options.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap.Scorer.Len()
}

// Dim returns the option-space dimensionality.
func (s *Store) Dim() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap.Scorer.Dim()
}

// applyOp validates and applies one mutation to pts in place (returning
// the possibly regrown slice), filling rec with the logged form of the
// op — payload vectors cloned so neither the dataset nor the history
// aliases the caller's slices, deletes stripped of any stray payload —
// and marking the touched slots in dirty (which may be nil when no cache
// invalidation will consume it, as in boot replay). i is the op's
// position in its batch, for error messages.
func applyOp(pts []vec.Vector, d, i int, op Op, rec *AppliedOp, dirty map[int]bool) ([]vec.Vector, error) {
	*rec = AppliedOp{Op: op, Moved: -1}
	mark := func(slot int) {
		if dirty != nil {
			dirty[slot] = true
		}
	}
	switch op.Kind {
	case OpInsert:
		if err := checkPoint(op.Point, d); err != nil {
			return nil, fmt.Errorf("store: op %d (insert): %w", i, err)
		}
		p := op.Point.Clone()
		pts = append(pts, p)
		rec.Op.Point = p
		mark(len(pts) - 1)
	case OpDelete:
		if op.Index < 0 || op.Index >= len(pts) {
			return nil, fmt.Errorf("store: op %d (delete): index %d out of range [0,%d)", i, op.Index, len(pts))
		}
		if len(pts) == 1 {
			return nil, fmt.Errorf("store: op %d (delete): cannot delete the last option", i)
		}
		rec.Op.Point = nil
		last := len(pts) - 1
		if op.Index != last {
			pts[op.Index] = pts[last]
			rec.Moved = last
		}
		pts[last] = nil
		pts = pts[:last]
		mark(op.Index)
		mark(last)
	case OpUpdate:
		if op.Index < 0 || op.Index >= len(pts) {
			return nil, fmt.Errorf("store: op %d (update): index %d out of range [0,%d)", i, op.Index, len(pts))
		}
		if err := checkPoint(op.Point, d); err != nil {
			return nil, fmt.Errorf("store: op %d (update): %w", i, err)
		}
		p := op.Point.Clone()
		pts[op.Index] = p
		rec.Op.Point = p
		mark(op.Index)
	default:
		return nil, fmt.Errorf("store: op %d: unknown kind %v", i, op.Kind)
	}
	return pts, nil
}

// buildBatch validates a batch against the predecessor point set and
// builds the successor state: the copy-on-write points slice, the log
// records and the dirty-slot set. The store is not touched; the first
// offending op's error rejects the whole batch.
func buildBatch(old []vec.Vector, ops []Op) (pts []vec.Vector, recs []AppliedOp, dirty map[int]bool, err error) {
	pts = make([]vec.Vector, len(old), len(old)+len(ops))
	copy(pts, old)
	d := old[0].Dim()

	dirty = make(map[int]bool)
	recs = make([]AppliedOp, len(ops))
	for i, op := range ops {
		pts, err = applyOp(pts, d, i, op, &recs[i], dirty)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return pts, recs, dirty, nil
}

// classifyBatch reports the Delta.Kind of a validated non-empty batch:
// insert-only exactly when every op is an insert.
func classifyBatch(ops []Op) DeltaKind {
	for _, op := range ops {
		if op.Kind != OpInsert {
			return DeltaReshape
		}
	}
	return DeltaInsertOnly
}

// publishLocked installs a built batch as generation gen: the new
// snapshot becomes current and the pre-sequenced records enter the
// bounded in-memory log. Callers hold mu and have already made the
// batch durable when the store is persistent.
func (s *Store) publishLocked(gen Generation, pts []vec.Vector, recs []AppliedOp) Snapshot {
	s.snap = Snapshot{Gen: gen, Scorer: s.track(topk.NewScorerAt(pts, uint64(gen)))}
	s.log = append(s.log, recs...)
	s.seq = recs[len(recs)-1].Seq
	if len(s.log) > logLimit {
		tail := make([]AppliedOp, logLimit/2)
		copy(tail, s.log[len(s.log)-logLimit/2:])
		s.log = tail
	}
	return s.snap
}

// Apply applies a batch of ops atomically: either every op validates and
// the batch publishes one new generation, or the store is unchanged and
// the first offending op's error is returned. The returned Snapshot is
// the new generation; the Delta lists the slots incremental cache
// invalidation must drop. An empty
// batch is a no-op returning the current snapshot.
//
// On a durable store the batch is encoded as one WAL record and — under
// SyncAlways — fsynced before the generation publishes, so a batch whose
// Apply returned is recovered by the next Open even across a crash. A
// WAL write failure rejects the batch and leaves the store unchanged.
// Concurrent Apply calls serialize on validation and the WAL append but
// group-commit the fsync: one shared flush covers every batch appended
// before it, and the batches then publish strictly in generation order.
// No disk I/O ever runs under the read lock, so concurrent readers pin
// snapshots and read stats without stalling behind a flush or a
// compaction.
func (s *Store) Apply(ops []Op) (Snapshot, Delta, error) {
	s.writeMu.Lock()

	s.mu.RLock()
	cur, closed := s.snap, s.closed
	s.mu.RUnlock()

	if closed {
		s.writeMu.Unlock()
		return cur, Delta{}, ErrClosed
	}
	if len(ops) == 0 {
		s.writeMu.Unlock()
		return cur, Delta{From: cur.Gen, To: cur.Gen}, nil
	}

	// Build against the tail — the last built batch — so a batch queued
	// behind an in-flight group commit stacks correctly on top of it.
	old := s.tail.pts
	pts, recs, dirty, err := buildBatch(old, ops)
	if err != nil {
		s.writeMu.Unlock()
		return cur, Delta{}, err
	}
	gen := s.tail.gen + 1
	firstSeq := s.tail.seq + 1
	for i := range recs {
		recs[i].Seq = firstSeq + uint64(i)
		recs[i].Gen = gen
	}

	var ticket uint64
	if s.wal != nil {
		payload := encodeBatch(gen, firstSeq, recs)
		if len(payload) > maxRecordBytes {
			// Not a disk fault: the batch itself is too large to ever be
			// a valid WAL record (recovery would classify it as a torn
			// tail and drop it). Reject it before anything is written.
			s.writeMu.Unlock()
			return cur, Delta{}, fmt.Errorf("store: batch encodes to %d bytes, over the %d-byte WAL record limit; split it", len(payload), maxRecordBytes)
		}
		ticket, err = s.wal.append(payload)
		if err != nil {
			s.writeMu.Unlock()
			return cur, Delta{}, fmt.Errorf("%w: wal append: %v", ErrDurability, err)
		}
		s.walOps += len(recs)
	}

	// The batch is built (and written): claim its generation on the tail
	// and a slot in the publish backlog, then let the next writer in —
	// it can build and append while this batch waits on the fsync.
	s.tail.pts, s.tail.gen, s.tail.seq = pts, gen, recs[len(recs)-1].Seq
	s.pubMu.Lock()
	s.pending++
	s.pubMu.Unlock()
	s.writeMu.Unlock()

	if s.wal != nil {
		// Group commit: returns once a shared fsync covers this batch's
		// record (immediately under SyncNone).
		if err := s.wal.waitSync(ticket); err != nil {
			s.pubMu.Lock()
			s.pending--
			s.pubCond.Broadcast()
			s.pubMu.Unlock()
			return cur, Delta{}, fmt.Errorf("%w: wal fsync: %v", ErrDurability, err)
		}
	}

	// Publish strictly in generation order; the durable write (fsync
	// included) happened before readers can see the new generation.
	s.pubMu.Lock()
	for s.published != gen-1 {
		s.pubCond.Wait()
	}
	s.mu.Lock()
	snap := s.publishLocked(gen, pts, recs)
	s.mu.Unlock()
	s.published = gen
	s.pending--
	s.pubCond.Broadcast()
	s.pubMu.Unlock()

	dirtyList := make([]int, 0, len(dirty))
	for i := range dirty {
		dirtyList = append(dirtyList, i)
	}
	delta := Delta{From: gen - 1, To: gen, Dirty: dirtyList, Kind: classifyBatch(ops)}
	if delta.Kind == DeltaInsertOnly {
		// Inserts land at the tail in op order: the new slots are exactly
		// [oldLen, newLen), ascending — AdvanceInsert's contract.
		delta.Inserted = make([]int, 0, len(pts)-len(old))
		for slot := len(old); slot < len(pts); slot++ {
			delta.Inserted = append(delta.Inserted, slot)
		}
	}

	if s.wal != nil {
		s.writeMu.Lock()
		s.maintain()
		s.writeMu.Unlock()
	}
	return snap, delta, nil
}

// drainPending waits until every built batch has published. Callers
// hold writeMu, so no new builds can start; the in-flight ones need
// only pubMu and mu to finish.
func (s *Store) drainPending() {
	s.pubMu.Lock()
	for s.pending > 0 {
		s.pubCond.Wait()
	}
	s.pubMu.Unlock()
}

// Close syncs and closes the WAL. Further Apply calls fail with
// ErrClosed; reads keep serving the in-memory state. Closing an
// in-memory store only blocks writes. In-flight Apply calls waiting on
// a group commit are drained first — Close never strands an
// acknowledged-in-progress batch. Close is idempotent.
func (s *Store) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return nil
	}
	// No new builds can start (writeMu is held and closed is set); wait
	// for the built backlog to flush and publish before closing the WAL.
	s.drainPending()
	var err error
	if s.wal != nil {
		err = s.wal.close()
	}
	if s.lock != nil {
		// Closing the fd drops the flock; another process may then open
		// the directory.
		if cerr := s.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Log returns a copy of the retained applied-ops with Seq > since
// (since=0 returns everything retained). Entries older than the
// retention limit are gone; callers detect the gap when the first
// returned Seq exceeds since+1.
func (s *Store) Log(since uint64) []AppliedOp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := 0
	for lo < len(s.log) && s.log[lo].Seq <= since {
		lo++
	}
	out := append([]AppliedOp(nil), s.log[lo:]...)
	// Payload vectors are cloned so a consumer cannot mutate history.
	for i := range out {
		if out[i].Op.Point != nil {
			out[i].Op.Point = out[i].Op.Point.Clone()
		}
	}
	return out
}
