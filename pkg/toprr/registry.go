package toprr

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"toprr/internal/store"
	"toprr/internal/vec"
)

// Registry errors, detectable with errors.Is.
var (
	// ErrUnknownDataset is returned for a dataset name the registry does
	// not hold.
	ErrUnknownDataset = errors.New("toprr: unknown dataset")
	// ErrDatasetExists is returned by Registry.Create for a name already
	// taken.
	ErrDatasetExists = errors.New("toprr: dataset already exists")
	// ErrRegistryClosed is returned by registry operations after Close.
	ErrRegistryClosed = errors.New("toprr: registry closed")
)

// Registry serves many named datasets from one process: each tenant is
// an independent Engine — its own generations, snapshot-isolated
// mutations and (under a durable registry) its own WAL/snapshot cycle
// in <root>/<name>/ — while the process shares compute and one cache
// budget across them.
//
// A durable registry (WithRegistryRoot / WithRegistryPersistence)
// discovers the datasets already under its root at construction and
// opens each lazily, on its first request. With WithIdleTTL it also
// evicts: an engine untouched for the TTL is closed — its memory,
// caches and WAL handle released — and transparently reopened from disk
// on the next request. A memory-only registry keeps every tenant
// resident (idle eviction would destroy data) and refuses a TTL.
//
// With WithCacheBudget the registry owns the process-wide top-k cache
// budget and re-apportions it whenever the set of resident engines
// changes, replacing per-engine WithCacheLimits tuning.
//
// A Registry is safe for concurrent use.
type Registry struct {
	root          string        // "" = memory-only
	ttl           time.Duration // idle-eviction TTL (0 = never evict)
	budgetConfigs int           // process-wide interned top-k configurations (0 = per-engine default)
	budgetEntries int           // per-configuration memoized-vertex cap (0 = per-engine default)
	watchCap      int           // per-tenant standing-subscription cap (0 = engine default)
	persist       store.PersistConfig

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// tenant is one named dataset's slot. engine is nil while the tenant is
// closed (idle-evicted, or discovered on boot and not yet requested);
// opening marks an in-flight open so concurrent requests wait on ready
// instead of opening twice.
type tenant struct {
	name     string
	engine   *Engine
	opening  bool
	ready    *sync.Cond // on Registry.mu; broadcast when an open finishes
	lastUse  time.Time
	refs     int   // in-flight Acquire holds; an evictor skips refs > 0
	closeErr error // last idle-eviction Close failure; cleared by a successful reopen
}

// RegistryOption configures a new Registry.
type RegistryOption func(*Registry)

// WithRegistryRoot makes the registry durable: every dataset lives in
// its own <root>/<name>/ directory with the default persistence
// configuration. Use WithRegistryPersistence to tune sync mode and
// compaction thresholds.
func WithRegistryRoot(root string) RegistryOption {
	return func(r *Registry) { r.root = root }
}

// WithRegistryPersistence is WithRegistryRoot with an explicit
// persistence template: cfg.Dir is the root, and the remaining fields
// (sync mode, compaction thresholds, segment size) apply to every
// dataset.
func WithRegistryPersistence(cfg PersistConfig) RegistryOption {
	return func(r *Registry) {
		r.root = cfg.Dir
		r.persist = cfg
	}
}

// WithIdleTTL enables idle eviction on a durable registry: an engine
// untouched for d is closed and reopened from disk on its next request.
// Requires a registry root; a memory-only registry cannot evict without
// destroying the tenant.
func WithIdleTTL(d time.Duration) RegistryOption {
	return func(r *Registry) { r.ttl = d }
}

// WithRegistryWatchCap bounds the standing subscriptions of each
// tenant (see Engine.Watch and WithWatchCap; 0 keeps the per-engine
// DefaultWatchCap). The cap is per tenant, not process-wide: every
// dataset's engine is opened with this limit.
func WithRegistryWatchCap(n int) RegistryOption {
	return func(r *Registry) { r.watchCap = n }
}

// WithCacheBudget sets the process-wide cache budget: totalConfigs
// interned top-k configurations divided evenly among the resident
// engines (each at least 1), re-apportioned as tenants open, close,
// evict and drop; entriesPerConfig caps each configuration's memoized
// vertices uniformly. Zero keeps the per-engine default for that knob.
func WithCacheBudget(totalConfigs, entriesPerConfig int) RegistryOption {
	return func(r *Registry) {
		r.budgetConfigs = totalConfigs
		r.budgetEntries = entriesPerConfig
	}
}

// NewRegistry builds a dataset registry. A durable registry discovers
// the datasets already under its root (each opens lazily on first
// request); a memory-only registry starts empty.
func NewRegistry(opts ...RegistryOption) (*Registry, error) {
	r := &Registry{tenants: make(map[string]*tenant)}
	for _, o := range opts {
		o(r)
	}
	if r.ttl < 0 {
		return nil, fmt.Errorf("toprr: negative idle TTL %v", r.ttl)
	}
	if r.ttl > 0 && r.root == "" {
		return nil, fmt.Errorf("toprr: idle eviction needs a registry root (a memory-only tenant cannot be reopened)")
	}
	if r.root != "" {
		names, err := store.DiscoverDatasets(r.root)
		if err != nil {
			return nil, err
		}
		now := time.Now()
		for _, name := range names {
			r.tenants[name] = r.newTenant(name, now)
		}
	}
	if r.ttl > 0 {
		interval := r.ttl / 2
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		r.stopJanitor = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor(interval)
	}
	return r, nil
}

func (r *Registry) newTenant(name string, now time.Time) *tenant {
	return &tenant{name: name, ready: sync.NewCond(&r.mu), lastUse: now}
}

// janitor sweeps idle engines until Close.
func (r *Registry) janitor(interval time.Duration) {
	defer close(r.janitorDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopJanitor:
			return
		case <-tick.C:
			r.EvictIdle()
		}
	}
}

// persistFor derives one dataset's persistence configuration from the
// registry template.
func (r *Registry) persistFor(name string) PersistConfig {
	cfg := r.persist
	cfg.Dir = store.DatasetDir(r.root, name)
	return cfg
}

// openEngineFor opens one tenant's engine outside the registry lock.
func (r *Registry) openEngineFor(name string, boot []vec.Vector) (*Engine, error) {
	var opts []EngineOption
	if r.watchCap > 0 {
		opts = append(opts, WithWatchCap(r.watchCap))
	}
	if r.root != "" {
		opts = append(opts, WithPersistenceConfig(r.persistFor(name)))
	}
	return OpenEngine(boot, opts...)
}

// rebalanceLocked re-apportions the cache budget over the resident
// engines: each gets an even share of the interned-configuration budget
// (at least 1) and the uniform per-configuration entry cap. Lowered
// shares are soft bounds — they steer what is interned from now on;
// already-warm caches drain through generation advances.
func (r *Registry) rebalanceLocked() {
	if r.budgetConfigs <= 0 && r.budgetEntries <= 0 {
		return
	}
	open := 0
	for _, t := range r.tenants {
		if t.engine != nil {
			open++
		}
	}
	if open == 0 {
		return
	}
	share := 0
	if r.budgetConfigs > 0 {
		share = r.budgetConfigs / open
		if share < 1 {
			share = 1
		}
	}
	for _, t := range r.tenants {
		if t.engine != nil {
			t.engine.SetCacheLimits(share, r.budgetEntries)
		}
	}
}

// engineLocked returns t's engine, reopening it from disk when the
// tenant is closed. Callers hold r.mu; the open itself runs unlocked,
// with t.opening serializing concurrent requests for the same tenant
// (waiters block on t.ready rather than opening twice).
func (r *Registry) engineLocked(t *tenant) (*Engine, error) {
	for t.opening {
		t.ready.Wait()
	}
	// Recheck both conditions after the wait: a Close or Drop may have
	// landed while this request was parked behind an in-flight open —
	// starting a fresh disk recovery just to close it again would stall
	// shutdown by one full replay per queued request.
	if r.closed {
		return nil, ErrRegistryClosed
	}
	if r.tenants[t.name] != t {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, t.name)
	}
	if t.engine != nil {
		return t.engine, nil
	}
	if r.root == "" {
		// Memory-only tenants are never evicted, so a nil engine cannot
		// happen; guard anyway.
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, t.name)
	}
	t.opening = true
	r.mu.Unlock()
	eng, err := r.openEngineFor(t.name, nil) // state exists on disk; no bootstrap
	r.mu.Lock()
	t.opening = false
	t.ready.Broadcast()
	if err != nil {
		return nil, fmt.Errorf("toprr: reopen dataset %s: %w", t.name, err)
	}
	if r.closed {
		eng.Close()
		return nil, ErrRegistryClosed
	}
	if r.tenants[t.name] != t {
		// Dropped while opening: the directory is gone or going.
		eng.Close()
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, t.name)
	}
	t.engine = eng
	t.closeErr = nil // the reopen recovered whatever the failed close left
	r.rebalanceLocked()
	return eng, nil
}

// Create registers a new named dataset bootstrapped from pts and
// returns its engine. Under a durable registry the dataset persists in
// <root>/<name>/; Create fails with ErrDatasetExists when the name is
// taken (including by an undiscovered directory that appeared behind
// the registry's back).
func (r *Registry) Create(name string, pts []vec.Vector) (*Engine, error) {
	if err := store.ValidateDatasetName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRegistryClosed
	}
	if _, ok := r.tenants[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDatasetExists, name)
	}
	// Placeholder with opening set, so concurrent Create/Get/Drop on the
	// same name wait for this construction instead of racing it.
	t := r.newTenant(name, time.Now())
	t.opening = true
	r.tenants[name] = t
	r.mu.Unlock()

	var (
		eng *Engine
		err error
	)
	if r.root != "" {
		if ok, herr := store.HasState(store.DatasetDir(r.root, name)); herr != nil {
			err = herr
		} else if ok {
			err = fmt.Errorf("%w: %s (directory already holds state)", ErrDatasetExists, name)
		}
	}
	if err == nil {
		eng, err = r.openEngineFor(name, pts)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	t.opening = false
	t.ready.Broadcast()
	if err != nil {
		if r.tenants[name] == t {
			delete(r.tenants, name)
		}
		return nil, err
	}
	if r.closed {
		eng.Close()
		delete(r.tenants, name)
		return nil, ErrRegistryClosed
	}
	t.engine = eng
	t.lastUse = time.Now()
	r.rebalanceLocked()
	return eng, nil
}

// Acquire returns the named dataset's engine pinned against idle
// eviction until release is called (release is idempotent). The tenant
// reopens from disk first if it was evicted. Prefer Acquire over Get
// when the engine is used across its return — a request handler, say —
// so the evictor cannot close its WAL mid-request.
func (r *Registry) Acquire(name string) (*Engine, func(), error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, nil, ErrRegistryClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	eng, err := r.engineLocked(t)
	if err != nil {
		r.mu.Unlock()
		return nil, nil, err
	}
	t.refs++
	t.lastUse = time.Now()
	r.mu.Unlock()

	var once sync.Once
	release := func() {
		once.Do(func() {
			r.mu.Lock()
			t.refs--
			t.lastUse = time.Now()
			r.mu.Unlock()
		})
	}
	return eng, release, nil
}

// Get returns the named dataset's engine, reopening it from disk when
// it was idle-evicted. The engine is not pinned: a later eviction may
// close it (reads keep serving; a subsequent Apply fails with
// ErrClosed, and a fresh Get reopens). Use Acquire to hold eviction off
// across a request.
func (r *Registry) Get(name string) (*Engine, error) {
	eng, release, err := r.Acquire(name)
	if err != nil {
		return nil, err
	}
	release()
	return eng, nil
}

// Open returns the named dataset's engine, creating the dataset from
// pts when it does not exist yet (pts is ignored for an existing
// dataset, like OpenEngine's bootstrap).
func (r *Registry) Open(name string, pts []vec.Vector) (*Engine, error) {
	eng, err := r.Get(name)
	if err == nil {
		return eng, nil
	}
	if !errors.Is(err, ErrUnknownDataset) {
		return nil, err
	}
	eng, err = r.Create(name, pts)
	if errors.Is(err, ErrDatasetExists) {
		// Lost a create race; the winner's engine serves.
		return r.Get(name)
	}
	return eng, err
}

// Drop deletes a dataset: its engine closes (in-flight reads finish
// against their pinned snapshots; in-flight Applies may fail with
// ErrClosed) and, under a durable registry, its directory is removed
// from disk. Dropping an unknown dataset returns ErrUnknownDataset.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRegistryClosed
	}
	t, ok := r.tenants[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	for t.opening {
		t.ready.Wait()
	}
	if r.closed {
		return ErrRegistryClosed
	}
	if r.tenants[name] != t {
		return fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	// The close and directory removal are disk I/O (a WAL fsync, an
	// unlink walk) and must not run under the registry lock, or every
	// other tenant's Acquire stalls behind them. Marking the tenant
	// busy (opening) keeps the name reserved meanwhile: concurrent
	// Creates see it taken, concurrent Acquires park on ready and find
	// the tenant gone when woken.
	eng := t.engine
	t.engine = nil
	t.opening = true
	r.rebalanceLocked()
	r.mu.Unlock()

	var err error
	if eng != nil {
		err = eng.Close()
	}
	if r.root != "" {
		if rerr := store.RemoveDataset(r.root, name); err == nil {
			err = rerr
		}
	}

	r.mu.Lock()
	t.opening = false
	t.ready.Broadcast()
	if r.tenants[name] == t {
		delete(r.tenants, name)
	}
	return err
}

// DatasetInfo is one tenant's directory entry.
type DatasetInfo struct {
	Name    string
	Open    bool // engine resident in memory (not idle-evicted)
	LastUse time.Time
}

// List returns the registry's datasets sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, DatasetInfo{Name: t.name, Open: t.engine != nil, LastUse: t.lastUse})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DatasetStats is one tenant's observability snapshot. For an evicted
// (Open == false) tenant only Name, Open, LastUse and CloseErr are
// meaningful — stats are not worth paging a dataset back in for.
type DatasetStats struct {
	Name       string
	Open       bool
	LastUse    time.Time
	Options    int
	Dim        int
	Cache      CacheStats
	Persist    PersistStats
	MaxConfigs int   // apportioned interned-configuration share (0 = engine default)
	CloseErr   error // last idle-eviction Close failure (nil once reopened)
}

// EngineDatasetStats assembles one resident engine's DatasetStats
// block — the single place the per-engine counters are composed, shared
// by Registry.Stats and front ends that already hold an acquired
// engine.
func EngineDatasetStats(name string, eng *Engine) DatasetStats {
	maxConfigs, _ := eng.CacheLimits()
	return DatasetStats{
		Name:       name,
		Open:       true,
		Options:    eng.Len(),
		Dim:        eng.Dim(),
		Cache:      eng.CacheStats(),
		Persist:    eng.PersistStats(),
		MaxConfigs: maxConfigs,
	}
}

// Stats snapshots every tenant, sorted by name. Evicted tenants are
// listed but not reopened.
func (r *Registry) Stats() []DatasetStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetStats, 0, len(r.tenants))
	for _, t := range r.tenants {
		ds := DatasetStats{Name: t.name, LastUse: t.lastUse, CloseErr: t.closeErr}
		if t.engine != nil {
			ds = EngineDatasetStats(t.name, t.engine)
			ds.LastUse = t.lastUse
		}
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EvictIdle closes every engine idle past the TTL right now and returns
// how many it closed; the janitor calls it periodically, and tests call
// it for determinism. Engines with in-flight Acquire holds are skipped.
// A Close error on eviction is recorded as the tenant's
// DatasetStats.CloseErr (cleared by the next successful reopen): under
// SyncAlways nothing acknowledged is at risk — every Apply fsynced
// before returning — while under SyncNone a failed final sync leaves
// the unflushed tail to the OS writeback window, exactly like the crash
// window docs/PERSISTENCE.md describes for that mode.
func (r *Registry) EvictIdle() int {
	r.mu.Lock()
	if r.closed || r.ttl <= 0 || r.root == "" {
		r.mu.Unlock()
		return 0
	}
	now := time.Now()
	var victims []*tenant
	var engines []*Engine
	for _, t := range r.tenants {
		if t.engine == nil || t.opening || t.refs > 0 || now.Sub(t.lastUse) < r.ttl {
			continue
		}
		// Busy-mark the tenant so a racing Acquire waits for this close
		// instead of reopening the directory while its flock is still
		// held; the engines close after the lock drops — a WAL fsync
		// must never stall every other tenant's Acquire.
		t.opening = true
		engines = append(engines, t.engine)
		t.engine = nil
		victims = append(victims, t)
	}
	if len(victims) > 0 {
		r.rebalanceLocked()
	}
	r.mu.Unlock()

	errs := make([]error, len(engines))
	for i, e := range engines {
		errs[i] = e.Close()
	}

	if len(victims) > 0 {
		r.mu.Lock()
		for i, t := range victims {
			t.opening = false
			t.closeErr = errs[i]
			t.ready.Broadcast()
		}
		r.mu.Unlock()
	}
	return len(victims)
}

// Close shuts the registry down: the janitor stops, in-flight opens are
// waited out, and every resident engine closes (first Close error wins).
// Further registry operations fail with ErrRegistryClosed. Close is
// idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	// Wait out in-flight opens; each sees closed on reacquiring the lock
	// and closes its own engine.
	for again := true; again; {
		again = false
		for _, t := range r.tenants {
			if t.opening {
				again = true
				t.ready.Wait()
				break
			}
		}
	}
	var err error
	for _, t := range r.tenants {
		if t.engine != nil {
			if cerr := t.engine.Close(); err == nil {
				err = cerr
			}
			t.engine = nil
		}
	}
	r.mu.Unlock()
	if r.stopJanitor != nil {
		close(r.stopJanitor)
		<-r.janitorDone
	}
	return err
}
