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

	// Sharded plane (shards > 1): interned caches are sharded, assign
	// maps each slot of the current generation to its shard, and Advance
	// invalidates per shard instead of per configuration.
	shards int
	assign []uint8
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
	return NewShardedRegistry(scorer, 1)
}

// NewShardedRegistry is NewRegistry with a sharded evaluation plane:
// interned caches split their memos (and their entry budgets) across
// shards, and Advance invalidates per shard — a mutation drops only the
// partials of the shards whose slots it touched, keeping the warm state
// of the rest, even for whole-dataset configurations. shards <= 1 is
// the plain unsharded registry.
func NewShardedRegistry(scorer *Scorer, shards int) *Registry {
	if shards > MaxShards {
		shards = MaxShards
	}
	if shards < 1 {
		shards = 1
	}
	r := &Registry{
		scorer:     scorer,
		m:          make(map[string]*Cache),
		limit:      registryLimit,
		entryLimit: cacheEntryLimit,
		shards:     shards,
	}
	if shards > 1 {
		r.assign = ShardAssignment(scorer, shards)
	}
	return r
}

// Shards returns the registry's shard count (1 = unsharded).
func (r *Registry) Shards() int { return r.shards }

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
	var c *Cache
	if r.shards > 1 {
		// The entry budget splits evenly across the shard memos.
		per := r.entryLimit / r.shards
		if per < 1 {
			per = 1
		}
		c = NewShardedCache(r.scorer, k, active, r.shards, per, r.assign)
	} else {
		c = NewBoundedCache(r.scorer, k, active, r.entryLimit)
	}
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
// Unsharded: configurations spanning the whole dataset (nil active set)
// are dropped — any mutation changes their membership — as are
// configurations whose active set touches a dirty slot. Every other
// configuration is carried forward *by pointer* (an O(configs) pass,
// not a copy of the memoized maps): its active options are
// bit-identical across the two generations, so the same Cache object
// keeps serving in-flight solves pinned to the old generation and
// new-generation solves alike — both compute identical results over it
// (see Cache.rebind).
//
// Sharded: each dirty slot is routed to its owning shard(s) — the shard
// of its old contents and the shard of its new contents — and a touched
// configuration drops only those shards' partial memos, recomputing
// their member lists from the new generation; the other shards keep
// their warm partials. An insert therefore invalidates one shard of a
// whole-dataset configuration instead of the whole configuration, and a
// delete or update drops only the touched shards' slots. Configurations
// made invalid outright (an explicit active slot truncated away, or the
// dataset shrinking below k) are still dropped.
func (r *Registry) Advance(sc *Scorer, dirty []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(sc, dirty)
}

// advanceLocked is Advance's body; AdvanceInsert (patch.go) reuses it
// as the fallback for deltas that break the pure-insert contract.
func (r *Registry) advanceLocked(sc *Scorer, dirty []int) {
	oldLen, newLen := r.scorer.Len(), sc.Len()

	// Count the dirty slots that existed in the old generation before
	// allocating anything: a pure insert dirties only slots at or beyond
	// oldLen, which no interned active set and no old shard assignment
	// can reference, so such deltas must advance allocation-free (a
	// CI-gated invariant, see alloc_test.go).
	nOld := 0
	for _, i := range dirty {
		if i < oldLen {
			nOld++
		}
	}

	newAssign := r.assign
	if r.shards > 1 {
		if nOld == 0 && newLen >= oldLen {
			// Pure insert: no existing slot changes hands; grow the
			// assignment in place (amortized append, no per-advance copy).
			for i := oldLen; i < newLen; i++ {
				r.assign = append(r.assign, uint8(ShardOfPoint(sc.Point(i), r.shards)))
			}
			newAssign = r.assign
		} else {
			// Incrementally advance the slot-to-shard map: only dirty slots
			// can change hands (shard assignment hashes contents, which are
			// bit-identical everywhere else).
			newAssign = make([]uint8, newLen)
			copy(newAssign, r.assign)
			for _, s := range dirty {
				if s < newLen {
					newAssign[s] = uint8(ShardOfPoint(sc.Point(s), r.shards))
				}
			}
		}
	}

	// Slots at or beyond the old generation's length cannot appear in an
	// interned active set; pre-shard registries filter them so a pure
	// insert advances without touching any configuration. The set is
	// built only when some old slot actually is dirty.
	var dirtySet map[int]bool
	if nOld > 0 {
		dirtySet = make(map[int]bool, nOld)
		for _, i := range dirty {
			if i < oldLen {
				dirtySet[i] = true
			}
		}
	}

	for key, c := range r.m {
		if r.shards <= 1 {
			if c.active != nil && !touches(c.active, dirtySet) {
				c.rebind(sc)
				continue
			}
			r.dropLocked(key, c)
			continue
		}

		// Sharded plane: route the dirty slots to their owning shards.
		if c.active != nil {
			if !touches(c.active, dirtySet) {
				c.rebind(sc)
				continue
			}
			// A truncated slot leaves the active set referring to
			// nothing; the configuration is unsalvageable.
			invalid := false
			for _, s := range c.active {
				if s >= newLen {
					invalid = true
					break
				}
			}
			if invalid {
				r.dropLocked(key, c)
				continue
			}
		} else {
			// Whole-dataset configuration: every mutation is relevant
			// (any dirty slot is a member), so only an empty delta can
			// rebind-and-skip.
			if len(dirty) == 0 {
				c.rebind(sc)
				continue
			}
			if newLen < c.k {
				r.dropLocked(key, c)
				continue
			}
		}
		var inActive map[int]bool
		if c.active != nil {
			inActive = make(map[int]bool, len(c.active))
			for _, s := range c.active {
				inActive[s] = true
			}
		}
		affected := make(map[int]bool, 2*len(dirty))
		for _, s := range dirty {
			if inActive != nil && !inActive[s] {
				continue // slot outside this configuration's active set
			}
			if s < oldLen {
				affected[int(r.assign[s])] = true
			}
			if s < newLen {
				affected[int(newAssign[s])] = true
			}
		}
		// Replace the configuration with its successor rather than
		// mutating it: in-flight solves pinned to the old generation
		// keep the old object (old scorer, members and partials on the
		// affected shards), while the successor shares the unaffected
		// shards' warm memos by pointer. The old object's merged-level
		// counters fold into the retired totals so Stats stays monotone.
		next, evicted := c.cloneAdvance(sc, newAssign, affected)
		h, m := c.Stats()
		r.retiredHits += h
		r.retiredMisses += m
		r.evictions += evicted
		r.m[key] = next
	}
	r.scorer = sc
	r.assign = newAssign
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

// ShardStats aggregates the per-shard cache counters across every
// interned configuration, indexed by shard id. It returns nil for an
// unsharded registry.
func (r *Registry) ShardStats() []ShardCacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shards <= 1 {
		return nil
	}
	out := make([]ShardCacheStats, r.shards)
	for i := range out {
		out[i].Shard = i
	}
	for _, c := range r.m {
		c.addShardStats(out)
	}
	return out
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
