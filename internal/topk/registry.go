package topk

import (
	"sort"
	"strconv"
	"sync"
)

// Registry interns top-k caches of one dataset by their (k, active-set)
// configuration, so that queries sharing a dataset also share memoized
// per-vertex top-k results. The TopRR recursion derives its cache
// configurations deterministically from the query region (the r-skyband
// active set, then Lemma 5 reductions), so batches of queries over
// nearby regions converge on the same configurations and amortize the
// scoring work.
//
// A Registry is generation-aware: it is bound to the scorer of one
// dataset generation and hands interned caches only to solves pinned to
// that generation (GetFor). When the store publishes a new generation,
// Advance moves the registry forward *incrementally* — configurations
// untouched by the mutation keep their memoized results; only
// configurations involving a dirty slot (or spanning the whole dataset)
// are dropped. A Registry is safe for concurrent use.
type Registry struct {
	mu            sync.Mutex
	scorer        *Scorer
	m             map[string]*Cache
	limit         int // max interned configurations
	entryLimit    int // max memoized vertices per interned cache
	evictions     int // configurations dropped by Advance or refused interning
	retiredHits   int // counters of caches dropped by Advance, kept so Stats stays monotone
	retiredMisses int

	// Patch-on-insert counters (see AdvanceInsert in patch.go).
	patchedEntries    int // memo entries changed by splices
	patchInserts      int // inserted options applied through the patch path
	untouchedAdvances int // patch advances in which no memoized top-k changed
}

// registryLimit caps the interned configurations and cacheEntryLimit
// caps each interned cache's memoized vertices. Beyond the limits, Get
// hands out unregistered caches and full caches stop storing: a
// long-lived engine keeps its hottest configurations and vertices
// without growing without bound. Both are defaults; the engine overrides
// them via SetLimits.
const (
	registryLimit   = 512
	cacheEntryLimit = 1 << 18
)

// NewRegistry builds an empty cache registry bound to one dataset
// generation's scorer.
func NewRegistry(scorer *Scorer) *Registry {
	return &Registry{
		scorer:     scorer,
		m:          make(map[string]*Cache),
		limit:      registryLimit,
		entryLimit: cacheEntryLimit,
	}
}

// SetLimits overrides the interned-configuration cap and the per-cache
// memoized-vertex cap (0 keeps the current value). It applies to caches
// interned from now on; already-interned caches keep their limit.
func (r *Registry) SetLimits(maxConfigs, maxEntriesPerCache int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if maxConfigs > 0 {
		r.limit = maxConfigs
	}
	if maxEntriesPerCache > 0 {
		r.entryLimit = maxEntriesPerCache
	}
}

// Scorer returns the dataset generation the registry currently serves.
func (r *Registry) Scorer() *Scorer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scorer
}

// configKey canonicalizes a cache configuration: the active set is
// keyed order-insensitively so permutations of the same subset share.
func configKey(k int, active []int) string {
	if active == nil {
		return strconv.Itoa(k) + "|*"
	}
	ix := append([]int(nil), active...)
	sort.Ints(ix)
	return strconv.Itoa(k) + "|" + joinInts(ix)
}

// GetFor returns the shared cache for (k, active) when sc is the
// registry's current generation, creating it on first use; it returns
// nil when sc is a different (typically older, pinned) generation, in
// which case the caller falls back to a solve-local cache. The scorer
// check happens under the registry lock, so a solve can never receive a
// cache bound to a generation other than its own.
func (r *Registry) GetFor(sc *Scorer, k int, active []int) *Cache {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sc != r.scorer {
		return nil
	}
	return r.getLocked(k, active)
}

// Get returns the shared cache for (k, active) under the registry's
// current generation, creating it on first use. Once the registry is
// full, unseen configurations receive fresh unregistered caches instead
// of growing the registry.
func (r *Registry) Get(k int, active []int) *Cache {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(k, active)
}

func (r *Registry) getLocked(k int, active []int) *Cache {
	key := configKey(k, active)
	if c, ok := r.m[key]; ok {
		return c
	}
	c := NewBoundedCache(r.scorer, k, active, r.entryLimit)
	if len(r.m) < r.limit {
		r.m[key] = c
	} else {
		r.evictions++
	}
	return c
}

// Advance moves the registry to a new dataset generation. dirty lists
// the slots whose identity changed (see store.Delta).
//
// Configurations spanning the whole dataset (nil active set) are
// dropped — any mutation changes their membership — as are
// configurations whose active set touches a dirty slot. Every other
// configuration is carried forward *by pointer* (an O(configs) pass,
// not a copy of the memoized maps): its active options are
// bit-identical across the two generations, so the same Cache object
// keeps serving in-flight solves pinned to the old generation and
// new-generation solves alike — both compute identical results over it
// (see Cache.rebind).
func (r *Registry) Advance(sc *Scorer, dirty []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(sc, dirty)
}

// advanceLocked is Advance's body; AdvanceInsert (patch.go) reuses it
// as the fallback for deltas that break the pure-insert contract.
func (r *Registry) advanceLocked(sc *Scorer, dirty []int) {
	// Slots at or beyond the old generation's length cannot appear in an
	// interned active set, so a pure insert advances without touching
	// any explicit-active configuration — and without allocating (a
	// CI-gated invariant, see alloc_test.go): the set is built only when
	// some old slot actually is dirty.
	oldLen := r.scorer.Len()
	var dirtySet map[int]bool
	for _, i := range dirty {
		if i < oldLen {
			if dirtySet == nil {
				dirtySet = make(map[int]bool, len(dirty))
			}
			dirtySet[i] = true
		}
	}
	for key, c := range r.m {
		if c.active != nil && !touches(c.active, dirtySet) {
			c.rebind(sc)
			continue
		}
		r.dropLocked(key, c)
	}
	r.scorer = sc
}

// dropLocked retires one interned configuration, folding its counters
// into the retired totals so Stats and Evictions stay monotone across
// generations.
func (r *Registry) dropLocked(key string, c *Cache) {
	h, m := c.Stats()
	r.retiredHits += h
	r.retiredMisses += m
	r.evictions += 1 + c.Evictions()
	delete(r.m, key)
}

// touches reports whether any index of active is in dirty.
func touches(active []int, dirty map[int]bool) bool {
	if len(dirty) == 0 {
		return false
	}
	for _, i := range active {
		if dirty[i] {
			return true
		}
	}
	return false
}

// Len reports the number of interned cache configurations.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Stats sums hits and misses over every interned cache, plus those of
// caches retired by Advance (so the totals are monotone across
// generations).
func (r *Registry) Stats() (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hits, misses = r.retiredHits, r.retiredMisses
	for _, c := range r.m {
		h, m := c.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Evictions reports configurations dropped by generation advances or
// refused interning at the registry cap, plus per-cache results declined
// at the entry cap.
func (r *Registry) Evictions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evictions
	for _, c := range r.m {
		n += c.Evictions()
	}
	return n
}
