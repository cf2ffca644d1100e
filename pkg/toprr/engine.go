package toprr

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"toprr/internal/core"
	"toprr/internal/geom"
	"toprr/internal/sketch"
	"toprr/internal/store"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Engine serves TopRR queries over a mutable, versioned dataset. Unlike
// the package-level Solve, an Engine keeps reusable per-dataset state
// and shares it across queries:
//
//   - the versioned store (generation-numbered copy-on-write snapshots
//     of the option set), and
//   - memoized top-k results keyed by (k, candidate-set) configuration,
//     so queries over nearby regions reuse each other's scoring work.
//
// Reads and writes are snapshot-isolated: Solve and SolveBatch pin the
// dataset generation current when they start (or the one given to
// SolveAt/SolveBatchAt) and never observe a concurrent Apply; the shared
// top-k cache follows the store generation by generation with
// incremental invalidation, so a mutation drops only the entries whose
// options actually changed. An Engine is safe for concurrent use; any
// mix of Solve, SolveBatch and Apply calls may run from many goroutines
// at once.
type Engine struct {
	store        *store.Store
	defaults     Options
	batchWorkers int
	persist      store.PersistConfig // zero Dir = in-memory engine
	caches       *topk.Registry

	// Sketch tier (approx.go): a filtered-space-saving sketch of the
	// dataset maintained on the mutation stream; gates the exact prefilter and
	// serves the approximate fast path. The counters feed CacheStats.
	sketches        *sketch.Plane
	sketchCertified atomic.Int64 // ApproxRank/ApproxImpact answered by sketch bounds alone
	sketchFallbacks atomic.Int64 // approximate queries that fell back to the exact plane

	// Cache advances must follow the store's generation order even
	// though concurrent Apply calls group-commit and return in fsync
	// order; advanced tracks the last generation whose delta reached the
	// caches and advanceCond parks out-of-order advancers.
	advanceMu   sync.Mutex
	advanceCond *sync.Cond
	advanced    Generation

	limitsMu   sync.Mutex // guards the cache-limit pair below
	maxConfigs int
	maxEntries int

	// Standing-query plane (watch.go): the notification hub fed one
	// signal per published generation, and the subscription cap.
	watch    *watchHub
	watchCap int
}

// EngineOption configures a new Engine.
type EngineOption func(*Engine)

// WithDefaults sets the Options applied to queries that do not carry
// their own.
func WithDefaults(o Options) EngineOption {
	return func(e *Engine) { e.defaults = o }
}

// WithPersistence makes the engine durable: every Apply batch is
// write-ahead-logged (fsynced by default) under dir before its
// generation publishes, and OpenEngine recovers the dataset from dir —
// base snapshot plus WAL replay — when it holds state from an earlier
// run. Compaction keeps replay bounded with the default thresholds; use
// WithPersistenceConfig to tune them. docs/PERSISTENCE.md specifies the
// recovery contract. Durable engines should be Closed; prefer
// OpenEngine over NewEngine so I/O failures surface as errors.
func WithPersistence(dir string) EngineOption {
	return func(e *Engine) { e.persist.Dir = dir }
}

// WithPersistenceConfig is WithPersistence with explicit WAL sync mode,
// compaction thresholds and segment size (zero fields keep the
// defaults).
func WithPersistenceConfig(cfg PersistConfig) EngineOption {
	return func(e *Engine) { e.persist = cfg }
}

// WithBatchWorkers bounds the number of queries SolveBatch runs
// concurrently (default: GOMAXPROCS).
func WithBatchWorkers(n int) EngineOption {
	return func(e *Engine) { e.batchWorkers = n }
}

// WithCacheLimits bounds the engine's shared top-k caches: maxConfigs
// caps the interned (k, candidate-set) configurations and
// maxEntriesPerConfig caps the memoized vertices of each. Zero keeps the
// built-in default for that limit. Past a limit the engine keeps
// serving — overflow work is computed without being retained — and the
// overflow shows up in CacheStats.Evictions.
func WithCacheLimits(maxConfigs, maxEntriesPerConfig int) EngineOption {
	return func(e *Engine) {
		e.maxConfigs = maxConfigs
		e.maxEntries = maxEntriesPerConfig
	}
}

// WithWatchCap bounds the engine's standing subscriptions
// (Engine.Watch): past the cap, Watch fails with
// ErrTooManySubscriptions until an active subscription closes. Zero
// keeps DefaultWatchCap; negative is rejected by OpenEngine.
func WithWatchCap(n int) EngineOption {
	return func(e *Engine) { e.watchCap = n }
}

// NewEngine builds an engine over an initial dataset of options in
// [0,1]^d, published as generation 1. It panics on an invalid dataset
// (empty, inconsistent dimensions, or components outside [0,1]), like
// NewProblem — and on any I/O error when a persistence option is set,
// so durable engines should prefer OpenEngine.
func NewEngine(pts []vec.Vector, opts ...EngineOption) *Engine {
	e, err := OpenEngine(pts, opts...)
	if err != nil {
		panic("toprr: " + err.Error())
	}
	return e
}

// OpenEngine is NewEngine returning errors instead of panicking. With a
// persistence option set it opens the data directory first: when the
// directory holds state from an earlier run, the dataset — generation
// number, options, op log — is recovered from it and pts serves only as
// the bootstrap for an empty directory (it may then be nil).
func OpenEngine(pts []vec.Vector, opts ...EngineOption) (*Engine, error) {
	e := &Engine{defaults: Options{Alg: TASStar}}
	for _, o := range opts {
		o(e)
	}
	if e.watchCap < 0 {
		return nil, fmt.Errorf("toprr: watch cap %d, want >= 0", e.watchCap)
	}
	if e.watchCap == 0 {
		e.watchCap = DefaultWatchCap
	}
	var (
		st  *store.Store
		err error
	)
	if e.persist.Dir != "" {
		st, err = store.Open(e.persist, pts)
	} else {
		st, err = store.New(pts)
	}
	if err != nil {
		return nil, err
	}
	e.store = st
	snap := st.Snapshot()
	e.caches = topk.NewRegistry(snap.Scorer)
	// The sketch tier is rebuilt from the snapshot on every open — an
	// evicted and reopened tenant re-derives its sketch here rather than
	// persisting it.
	e.sketches = sketch.NewPlane(snap.Scorer, 1, 0)
	e.caches.SetLimits(e.maxConfigs, e.maxEntries)
	e.advanceCond = sync.NewCond(&e.advanceMu)
	e.advanced = snap.Gen
	e.watch = newWatchHub(e)
	return e, nil
}

// Shards returns 1: an engine's solve plane is one shard. It is kept
// only because the toprrbench module compiles against it.
func (e *Engine) Shards() int { return 1 }

// SetCacheLimits adjusts the cache limits of a live engine, with the
// same semantics as WithCacheLimits (zero keeps the current value for
// that limit). A Registry uses it to re-apportion a process-wide cache
// budget as tenants come and go. Lowering a limit is a soft bound: it
// applies to configurations interned from now on; already-interned
// caches drain through generation advances rather than being evicted
// mid-solve.
func (e *Engine) SetCacheLimits(maxConfigs, maxEntriesPerConfig int) {
	e.limitsMu.Lock()
	defer e.limitsMu.Unlock()
	if maxConfigs > 0 {
		e.maxConfigs = maxConfigs
	}
	if maxEntriesPerConfig > 0 {
		e.maxEntries = maxEntriesPerConfig
	}
	// Inside the critical section, so concurrent calls apply the caps in
	// the same order they update the reported fields — CacheLimits never
	// disagrees with what the registry enforces.
	e.caches.SetLimits(maxConfigs, maxEntriesPerConfig)
}

// CacheLimits reports the engine's configured cache limits (zero means
// the built-in default for that limit is in effect).
func (e *Engine) CacheLimits() (maxConfigs, maxEntriesPerConfig int) {
	e.limitsMu.Lock()
	defer e.limitsMu.Unlock()
	return e.maxConfigs, e.maxEntries
}

// Close releases the engine's durable resources: in-flight Apply calls
// drain, then the WAL is synced and closed, after which Apply fails and
// reads keep serving the in-memory state. Closing is idempotent, and a
// no-op beyond blocking writes for in-memory engines. A crash without
// Close loses nothing an Apply acknowledged under the default sync
// mode; Close exists so a clean shutdown releases file handles
// deterministically.
func (e *Engine) Close() error {
	// Stop the notification hub first: subscriptions close their Updates
	// channels (SSE handlers and other consumers drain out) before the
	// store refuses writes.
	e.watch.stop()
	return e.store.Close()
}

// Snapshot pins the current dataset generation: the returned view stays
// valid — and identical — no matter how many Apply calls land after it.
// Hand it to SolveAt/SolveBatchAt to answer several queries against one
// consistent generation.
func (e *Engine) Snapshot() Snapshot { return e.store.Snapshot() }

// Generation returns the current dataset generation.
func (e *Engine) Generation() Generation { return e.store.Generation() }

// Len returns the current number of options.
func (e *Engine) Len() int { return e.store.Len() }

// Dim returns the option-space dimensionality d.
func (e *Engine) Dim() int { return e.store.Dim() }

// Scorer exposes the current generation's dataset wrapper (for oracles
// and rank probes). Prefer Snapshot when the scorer must stay consistent
// with a solve.
func (e *Engine) Scorer() *topk.Scorer { return e.store.Snapshot().Scorer }

// Log returns the retained applied-ops with sequence number > since
// (since=0 returns everything retained).
func (e *Engine) Log(since uint64) []AppliedOp { return e.store.Log(since) }

// Apply mutates the dataset: the batch applies atomically and publishes
// one new generation, whose number is returned. In-flight solves are
// unaffected — they keep their pinned snapshot — and the engine's shared
// caches advance incrementally. The store classifies each batch
// (store.Delta.Kind) and the engine picks the repair strategy per
// delta: a pure-insert batch takes the patch path — memoized top-k
// entries are patched by scoring only the inserted options at each
// memoized vertex — while a batch that deletes or updates option p
// drops only the entries involving p. On error the dataset and the
// returned generation are unchanged.
//
// Concurrent Apply calls overlap: on a durable engine their WAL fsyncs
// group-commit behind one shared flush instead of serializing on the
// disk, and the cache advances then apply strictly in generation order.
// Reads never block writes.
func (e *Engine) Apply(ctx context.Context, ops []Op) (Generation, error) {
	if err := ctx.Err(); err != nil {
		return e.store.Generation(), err
	}
	snap, delta, err := e.store.Apply(ops)
	if err != nil {
		return e.store.Generation(), err
	}
	if delta.To != delta.From {
		// The store publishes generations in order, but concurrent Apply
		// callers can reach this point out of order; the gate replays
		// the deltas onto the caches in the order they were published.
		e.advanceMu.Lock()
		for e.advanced != delta.From {
			e.advanceCond.Wait()
		}
		suppress := false
		if delta.Kind == store.DeltaInsertOnly {
			sum := e.caches.AdvanceInsert(snap.Scorer, delta.Inserted)
			// The conservative region-delta signal: only a summary that
			// patched nothing, dropped nothing and honored the pure-insert
			// contract proves every standing region survived the batch.
			suppress = !sum.MaybeChanged()
			e.sketches.AdvanceInsert(snap.Scorer, delta.Inserted)
		} else {
			e.caches.Advance(snap.Scorer, delta.Dirty)
			e.sketches.Advance(snap.Scorer)
		}
		// Inside the gate, so the hub sees signals in publication order;
		// observe only flips flags (never solves), keeping the write path
		// free of notification work.
		e.watch.observe(suppress)
		e.advanced = delta.To
		e.advanceCond.Broadcast()
		e.advanceMu.Unlock()
	}
	return snap.Gen, nil
}

// Query is one TopRR request against an engine's dataset.
type Query struct {
	K       int            // rank threshold
	WR      *geom.Polytope // convex preference region
	Options *Options       // nil = the engine's defaults
}

// problem validates a query and binds it to one pinned dataset
// generation without re-wrapping the points.
func (e *Engine) problem(snap Snapshot, q Query) (Problem, error) {
	if snap.Scorer == nil {
		return Problem{}, fmt.Errorf("toprr: zero snapshot (use Engine.Snapshot)")
	}
	if q.WR == nil {
		return Problem{}, fmt.Errorf("toprr: query has no preference region")
	}
	if q.WR.Dim != snap.Scorer.PrefDim() {
		return Problem{}, fmt.Errorf("toprr: wR dimension %d, want %d", q.WR.Dim, snap.Scorer.PrefDim())
	}
	if q.K <= 0 || q.K > snap.Scorer.Len() {
		return Problem{}, fmt.Errorf("toprr: k=%d out of range for %d options", q.K, snap.Scorer.Len())
	}
	return Problem{Scorer: snap.Scorer, K: q.K, WR: q.WR}, nil
}

// options resolves a query's options and injects the engine's shared
// top-k cache (which itself verifies the solve's pinned generation on
// every access) and its sketch gate.
func (e *Engine) options(q Query) Options {
	opt := e.defaults
	if q.Options != nil {
		opt = *q.Options
	}
	opt.TopKCaches = e.caches
	if !opt.DisableSketchGate {
		opt.SketchGate = e.sketches.Gate
	}
	return opt
}

// Solve answers one query against the generation current when the call
// starts, honoring cancellation and deadlines on ctx.
func (e *Engine) Solve(ctx context.Context, q Query) (*Result, error) {
	return e.SolveAt(ctx, e.store.Snapshot(), q)
}

// SolveAt answers one query against a pinned snapshot, so a caller can
// run several queries — or interleave queries with its own bookkeeping —
// against one consistent dataset generation while writers proceed.
func (e *Engine) SolveAt(ctx context.Context, snap Snapshot, q Query) (*Result, error) {
	p, err := e.problem(snap, q)
	if err != nil {
		return nil, err
	}
	return core.SolveContext(ctx, p, e.options(q))
}

// Rank returns the top-k option indices — best first, ties broken by
// lower index — at reduced preference vector w (d-1 components; the
// last weight is implicitly 1 - sum) over the full current dataset. The
// ranking is memoized in the engine's shared cache plane under the
// whole-dataset configuration, so repeated rankings at the same
// preference are served without rescoring, and a pure-insert Apply
// repairs the memo by scoring only the inserted options
// (CacheStats.PatchedEntries) instead of dropping it.
func (e *Engine) Rank(w vec.Vector, k int) ([]int, error) {
	return e.RankAt(e.store.Snapshot(), w, k)
}

// RankAt is Rank against a pinned snapshot. Rankings at the current
// generation share the engine's memo; a pinned older generation scores
// directly against its own snapshot.
func (e *Engine) RankAt(snap Snapshot, w vec.Vector, k int) ([]int, error) {
	if err := validatePref(snap, w, k); err != nil {
		return nil, err
	}
	var res *topk.Result
	if c := e.caches.GetFor(snap.Scorer, k, nil); c != nil {
		res, _ = c.Lookup(w)
	} else {
		// The snapshot is pinned behind the registry's generation: score
		// against the snapshot itself, without publishing into the memo.
		res = snap.Scorer.TopK(w, k, nil)
	}
	return append([]int(nil), res.Ordered...), nil
}

// SolveBatch answers a batch of queries concurrently (bounded by the
// engine's batch-worker count), amortizing the shared per-dataset
// caches across them. The whole batch is answered against the single
// generation current when the call starts. Results align with qs. On
// the first error the remaining queries are cancelled; the partial
// results computed so far are returned alongside the error (failed or
// cancelled slots are nil).
func (e *Engine) SolveBatch(ctx context.Context, qs []Query) ([]*Result, error) {
	return e.SolveBatchAt(ctx, e.store.Snapshot(), qs)
}

// SolveBatchAt is SolveBatch against a pinned snapshot.
func (e *Engine) SolveBatchAt(ctx context.Context, snap Snapshot, qs []Query) ([]*Result, error) {
	results := make([]*Result, len(qs))
	if len(qs) == 0 {
		return results, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.batchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}

	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := e.SolveAt(ctx, snap, qs[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					cancel() // fail fast: stop dispatch and running solves
					continue
				}
				results[i] = res
			}
		}()
	}
dispatch:
	for i := range qs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	if firstErr != nil {
		return results, fmt.Errorf("toprr: batch query %d: %w", firstIdx, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// CacheStats reports the engine's cross-query cache occupancy: interned
// top-k cache configurations, the cumulative top-k hit/miss totals
// across them, and the entries evicted so far (dropped by generation
// advances or refused at a configured cap). The snapshot is taken at
// the current generation.
//
// LiveGenerations and RetainedSnapshotBytes observe the store's
// copy-on-write snapshots: how many generations are still reachable
// (the current one plus any pinned by in-flight or leaked snapshots)
// and an upper bound on the bytes they retain. A live count that grows
// without bound while mutations flow marks a leaked pin; the counters
// move when the garbage collector reclaims a generation, so they trail
// drops by one GC cycle.
type CacheStats struct {
	Generation  Generation
	TopKConfigs int
	// Patch-on-insert counters (cumulative): PatchedEntries is memoized
	// top-k entries repaired by splicing an inserted option in,
	// PatchInserts the options applied through the patch path, and
	// UntouchedAdvances the insert batches in which no memoized top-k
	// changed — the region-delta signal that every standing result
	// region survived the batch unchanged.
	PatchedEntries    int
	PatchInserts      int
	UntouchedAdvances int

	TopKHits              int
	TopKMisses            int
	Evictions             int
	LiveGenerations       int
	RetainedSnapshotBytes int64

	// Sketch-tier counters. Occupancy (entries monitored and members
	// folded into threshold bounds) is a snapshot; the rest
	// are cumulative: prefilter gate certifications and declines, options
	// the certificates excused from exact dominance tests, approximate
	// queries answered by sketch bounds alone, and those that fell back
	// to the exact plane.
	SketchEntries        int
	SketchFolded         int
	SketchGateHits       int
	SketchGateMisses     int
	SketchCertifiedSkips int
	SketchCertified      int
	SketchFallbacks      int
}

// CacheStats snapshots the engine's shared-cache occupancy and snapshot
// GC counters.
func (e *Engine) CacheStats() CacheStats {
	hits, misses := e.caches.Stats()
	live, retained := e.store.GCStats()
	patched, pins, untouched := e.caches.PatchStats()
	cs := CacheStats{
		Generation:            e.store.Generation(),
		TopKConfigs:           e.caches.Len(),
		PatchedEntries:        patched,
		PatchInserts:          pins,
		UntouchedAdvances:     untouched,
		TopKHits:              hits,
		TopKMisses:            misses,
		Evictions:             e.caches.Evictions(),
		LiveGenerations:       live,
		RetainedSnapshotBytes: retained,
	}
	sk := e.sketches.Stats()
	cs.SketchEntries = sk.Entries
	cs.SketchFolded = sk.Folded
	cs.SketchGateHits = sk.GateHits
	cs.SketchGateMisses = sk.GateMisses
	cs.SketchCertifiedSkips = sk.CertifiedSkips
	cs.SketchCertified = int(e.sketchCertified.Load())
	cs.SketchFallbacks = int(e.sketchFallbacks.Load())
	return cs
}

// PersistStats snapshots the engine's durable layer: WAL size and
// segment count (the replay cost bound for the next boot) and the
// generation of the newest base snapshot. All-zero for in-memory
// engines.
func (e *Engine) PersistStats() PersistStats { return e.store.PersistStats() }
