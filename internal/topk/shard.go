package topk

// The sharded evaluation plane: a dataset generation is split into S
// stable shards, each owning a disjoint subset of the options. A
// sharded cache memoizes, per shard, the shard's *partial* top-k result
// at each queried vertex (the best min(k, |shard|) options with their
// scores), and merges the partials into the global top-k on lookup.
//
// The merge is exact: every option of the global top-k ranks within the
// top-k of its own shard, so the global result is the k best entries of
// the concatenated partials — and because each partial is ordered by
// (score desc, index asc), the same comparator the unsharded sort uses,
// the merged ordering (ties included) is bit-identical to the unsharded
// one. Sharded and unsharded solves therefore produce identical
// results; sharding changes only where the work and the memoized state
// live:
//
//   - each shard's memo has its own lock, so parallel solver workers
//     never contend on one shared cache mutex;
//   - invalidation is per shard: a mutation drops only the partials of
//     the shards whose membership or contents changed, and the other
//     S-1 shards keep their warm state — even for whole-dataset
//     configurations, which the unsharded registry must drop on any op;
//   - cache budgets split across shards, bounding each memo
//     independently.
//
// Shard assignment hashes the option's *contents*, not its slot index,
// so it is stable under the store's swap-delete: an option moved into a
// freed slot keeps its shard, and only the slots a mutation actually
// touched change hands.

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"toprr/internal/vec"
)

// MaxShards bounds the shard count of every sharded structure in the
// package; it keeps shard ids byte-sized and fan-out bounded.
const MaxShards = 64

// ShardOfPoint assigns an option to one of shards buckets by FNV-1a
// over its coordinate bits. The assignment depends only on the option's
// contents, so it is stable under swap-delete relocation.
func ShardOfPoint(p vec.Vector, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range p {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(shards))
}

// ShardAssignment maps every slot of a scorer's dataset to its shard.
func ShardAssignment(sc *Scorer, shards int) []uint8 {
	assign := make([]uint8, sc.Len())
	if shards <= 1 {
		return assign
	}
	for i := range assign {
		assign[i] = uint8(ShardOfPoint(sc.Point(i), shards))
	}
	return assign
}

// partial is one shard's contribution to a vertex's top-k: the shard's
// best min(k, |shard members|) options in (score desc, index asc)
// order, with their scores so the merge needs no rescoring. For
// whole-dataset (nil active set) configurations, w retains the vertex
// itself so patch-on-insert (patch.go) can score inserted options at it;
// all of a vertex's partials share one private clone.
type partial struct {
	idx    []int
	scores []float64
	w      vec.Vector
}

// shardMemo is one shard's per-vertex partial memo. Each memo has its
// own lock, so shards never contend with each other.
type shardMemo struct {
	mu        sync.Mutex
	scorer    *Scorer
	members   []int // slots owned by this shard (within the cache's active set), ascending
	m         map[uint64]*partial
	limit     int // max memoized vertices (0 = unlimited)
	hits      int
	misses    int
	evictions int
}

// computePartial scores the memo's members at w and returns the best
// min(k, len(members)) with scores. members and scorer are snapshotted
// by the caller; the computation runs without the memo lock. The sort
// comparator is exactly Scorer.TopK's, so merged orderings — ties
// included — are bit-identical to unsharded results.
func computePartial(sc *Scorer, members []int, w vec.Vector, k int) *partial {
	ss := sortPool.Get().(*sortScratch)
	defer sortPool.Put(ss)
	all, scores := ss.for_(len(members))
	sc.scoreInto(w, members, scores)
	for i, idx := range members {
		all[i] = scored{idx: idx, score: scores[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].idx < all[j].idx
	})
	if k > len(all) {
		k = len(all)
	}
	p := &partial{idx: make([]int, k), scores: make([]float64, k)}
	for i := 0; i < k; i++ {
		p.idx[i] = all[i].idx
		p.scores[i] = all[i].score
	}
	return p
}

// mergePartials k-way-merges the per-shard partials into the global
// top-k. Exactness: each global top-k option is in its shard's partial,
// and the shared (score desc, index asc) comparator reproduces the
// unsharded ordering exactly. The caller guarantees the partials hold
// at least k entries in total.
func mergePartials(parts []*partial, k int) *Result {
	heads := make([]int, len(parts))
	ordered := make([]int, 0, k)
	scores := make([]float64, 0, k)
	for len(ordered) < k {
		best := -1
		var bestScore float64
		var bestIdx int
		for i, p := range parts {
			h := heads[i]
			if p == nil || h >= len(p.idx) {
				continue
			}
			s, ix := p.scores[h], p.idx[h]
			if best < 0 || s > bestScore || (s == bestScore && ix < bestIdx) {
				best, bestScore, bestIdx = i, s, ix
			}
		}
		if best < 0 {
			panic("topk: sharded partials exhausted before k entries")
		}
		ordered = append(ordered, bestIdx)
		scores = append(scores, bestScore)
		heads[best]++
	}
	return newResult(ordered, scores)
}

// ShardAccum attributes sharded top-k work to one solve: Partials
// counts the partial computations each shard performed for the solve,
// Scored the options scored doing so. Counters are atomic so the
// parallel solver's workers update them without a lock.
type ShardAccum struct {
	Partials []atomic.Int64
	Scored   []atomic.Int64
}

// NewShardAccum builds a zeroed accumulator for n shards.
func NewShardAccum(n int) *ShardAccum {
	return &ShardAccum{Partials: make([]atomic.Int64, n), Scored: make([]atomic.Int64, n)}
}

// sharded is the shard-mode state of a Cache: per-shard partial memos
// plus a merged-result memo so repeat lookups of a vertex skip the
// k-way merge entirely. The merged memo is read under a shared RWMutex
// (concurrent hit paths never block each other); it is cleared whenever
// per-shard invalidation drops any shard, since a merged result depends
// on all of them.
type sharded struct {
	memos []*shardMemo

	mergedMu    sync.RWMutex
	merged      map[uint64]*Result
	mergedLimit int // max merged vertices (0 = unlimited); mirrors the per-shard entry limit
}

// bucketMembers splits an active set (nil = the whole dataset) into
// per-shard member lists using assign (slot -> shard); assign may be
// nil, in which case membership is hashed from the scorer's contents.
func bucketMembers(sc *Scorer, active []int, shards int, assign []uint8) [][]int {
	members := make([][]int, shards)
	add := func(slot int) {
		var sh int
		if assign != nil {
			sh = int(assign[slot])
		} else {
			sh = ShardOfPoint(sc.pts[slot], shards)
		}
		members[sh] = append(members[sh], slot)
	}
	if active == nil {
		for i := range sc.pts {
			add(i)
		}
	} else {
		for _, i := range active {
			add(i)
		}
	}
	return members
}

// NewShardedCache builds a cache whose evaluation plane is split into
// shards: per-vertex partial results are memoized per shard (each with
// its own lock and entry limit) and merged into exact global top-k
// results on lookup. shards <= 1 falls back to a plain Cache.
// entryLimitPerShard caps each shard memo (0 = unlimited). assign may
// carry a precomputed slot-to-shard map for the scorer's generation
// (nil = hash on demand).
func NewShardedCache(scorer *Scorer, k int, active []int, shards, entryLimitPerShard int, assign []uint8) *Cache {
	if shards <= 1 {
		return NewCache(scorer, k, active)
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	members := bucketMembers(scorer, active, shards, assign)
	sh := &sharded{
		memos:  make([]*shardMemo, shards),
		merged: make(map[uint64]*Result),
		// The merged memo holds one Result per vertex — the same unit
		// the unsharded cache's map holds — so it gets the whole entry
		// budget, not a per-shard slice of it; capping it at the
		// per-shard share would shrink vertex-level hit capacity S-fold.
		mergedLimit: entryLimitPerShard * shards,
	}
	for i := range sh.memos {
		sh.memos[i] = &shardMemo{
			scorer:  scorer,
			members: members[i],
			m:       make(map[uint64]*partial),
			limit:   entryLimitPerShard,
		}
	}
	return &Cache{scorer: scorer, k: k, active: active, sh: sh}
}

// Shards returns the cache's shard count (1 for unsharded caches).
func (c *Cache) Shards() int {
	if c.sh == nil {
		return 1
	}
	return len(c.sh.memos)
}

// shardParallelThreshold is the total member count missing shards must
// exceed before a sharded lookup fans the partial computations out to
// goroutines; below it the per-goroutine overhead would dominate the
// scoring work.
const shardParallelThreshold = 4096

// lookupSharded serves one vertex from the sharded plane: per-shard
// partials are read (or computed) under each shard's own lock and
// merged into the exact global result. When several shards miss and
// their combined member count is large, the partial computations run
// concurrently; ctx cancellation stops unstarted sibling shards and
// fails the lookup, leaving already-computed partials memoized (they
// are idempotent). hit reports whether every shard served from memory.
func (c *Cache) lookupSharded(ctx context.Context, w vec.Vector, acc *ShardAccum) (r *Result, hit bool, err error) {
	key := w.Hash(1e-10)

	// Fast path: the merged memo serves repeat vertices without touching
	// any shard — a shared read lock, so hitting goroutines never block
	// each other.
	c.sh.mergedMu.RLock()
	r, ok := c.sh.merged[key]
	c.sh.mergedMu.RUnlock()
	if ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return r, true, nil
	}

	memos := c.sh.memos
	parts := make([]*partial, len(memos))
	var missing []int
	missingMembers := 0
	for i, sm := range memos {
		sm.mu.Lock()
		if p, ok := sm.m[key]; ok {
			parts[i] = p
			sm.hits++
		} else {
			missing = append(missing, i)
			missingMembers += len(sm.members)
		}
		sm.mu.Unlock()
	}
	if len(missing) == 0 {
		// Every shard had its partial (the merged entry was dropped by a
		// partial invalidation of a *different* vertex, or lost a store
		// race): remerge and re-memoize.
		r = mergePartials(parts, c.k)
		c.storeMerged(key, r)
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return r, true, nil
	}

	// Patchable (whole-dataset) configurations retain the vertex with
	// each stored partial; one private clone is shared by every partial
	// this lookup stores (lookup vertices may live in a recycled arena).
	var wkeep vec.Vector
	if c.active == nil {
		wkeep = w.Clone()
	}

	compute := func(i int) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sm := memos[i]
		sm.mu.Lock()
		sc, members, limit := sm.scorer, sm.members, sm.limit
		sm.mu.Unlock()
		p := computePartial(sc, members, w, c.k)
		p.w = wkeep
		if acc != nil {
			acc.Partials[i].Add(1)
			acc.Scored[i].Add(int64(len(members)))
		}
		sm.mu.Lock()
		if limit <= 0 || len(sm.m) < limit {
			sm.m[key] = p
		} else {
			sm.evictions++
		}
		sm.misses++
		sm.mu.Unlock()
		parts[i] = p
		return nil
	}

	if len(missing) > 1 && missingMembers >= shardParallelThreshold {
		// Fan the missing shards out; a ctx cancellation makes every
		// not-yet-started sibling return immediately.
		var wg sync.WaitGroup
		errs := make([]error, len(missing))
		for t, i := range missing {
			wg.Add(1)
			go func(t, i int) {
				defer wg.Done()
				errs[t] = compute(i)
			}(t, i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, false, e
			}
		}
	} else {
		for _, i := range missing {
			if err := compute(i); err != nil {
				return nil, false, err
			}
		}
	}

	r = mergePartials(parts, c.k)
	c.storeMerged(key, r)
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return r, false, nil
}

// storeMerged memoizes a merged result under the merged-vertex cap.
func (c *Cache) storeMerged(key uint64, r *Result) {
	c.sh.mergedMu.Lock()
	if c.sh.mergedLimit <= 0 || len(c.sh.merged) < c.sh.mergedLimit {
		c.sh.merged[key] = r
	}
	c.sh.mergedMu.Unlock()
}

// rebindSharded points every shard memo (and the cache itself) at a new
// generation's scorer; sound under the same bit-identical-members
// argument as Cache.rebind.
func (c *Cache) rebindSharded(sc *Scorer) {
	for _, sm := range c.sh.memos {
		sm.mu.Lock()
		sm.scorer = sc
		sm.mu.Unlock()
	}
	c.mu.Lock()
	c.scorer = sc
	c.mu.Unlock()
}

// cloneAdvance builds this sharded cache's successor for a new
// generation: a new Cache object whose affected shards — those whose
// membership or member contents changed — start with fresh memos bound
// to the new scorer and assignment, while every unaffected shard memo
// is carried forward *by pointer*. Sharing the unaffected memos is
// sound by the rebind argument (their members are bit-identical across
// the two generations, so both sides compute and read identical
// partials); replacing the object — rather than mutating this one — is
// what keeps in-flight solves pinned to the old generation correct:
// they keep this cache, whose affected shards still hold the old
// scorer, members and partials. The merged memo starts empty (merged
// results depend on the affected shards). It returns the successor and
// the number of old-generation partials left behind with it.
func (c *Cache) cloneAdvance(sc *Scorer, assign []uint8, affected map[int]bool) (*Cache, int) {
	members := bucketMembers(sc, c.active, len(c.sh.memos), assign)
	memos := make([]*shardMemo, len(c.sh.memos))
	evicted := 0
	for i, sm := range c.sh.memos {
		if affected[i] {
			sm.mu.Lock()
			// The partials left behind plus the old memo's own refusal
			// count, so the registry's Evictions stays monotone when the
			// old object retires.
			evicted += len(sm.m) + sm.evictions
			limit := sm.limit
			sm.mu.Unlock()
			memos[i] = &shardMemo{
				scorer:  sc,
				members: members[i],
				m:       make(map[uint64]*partial),
				limit:   limit,
			}
			continue
		}
		// Shared between the old and new cache: rebind to the new
		// scorer (results identical under either, see Cache.rebind).
		sm.mu.Lock()
		sm.scorer = sc
		sm.mu.Unlock()
		memos[i] = sm
	}
	return &Cache{
		scorer: sc,
		k:      c.k,
		active: c.active,
		sh: &sharded{
			memos:       memos,
			merged:      make(map[uint64]*Result),
			mergedLimit: c.sh.mergedLimit,
		},
	}, evicted
}

// ShardCacheStats is one shard's aggregate cache occupancy, summed by
// Registry.ShardStats across every interned configuration. The columns
// are truly shard-owned (each shard memoizes only its own options'
// partials).
type ShardCacheStats struct {
	Shard       int
	TopKEntries int // memoized partials
	TopKHits    int
	TopKMisses  int
	TopKEvicted int
}

// addShardStats folds one sharded cache's per-shard counters into out
// (indexed by shard id).
func (c *Cache) addShardStats(out []ShardCacheStats) {
	if c.sh == nil {
		return
	}
	for i, sm := range c.sh.memos {
		if i >= len(out) {
			break
		}
		sm.mu.Lock()
		out[i].TopKEntries += len(sm.m)
		out[i].TopKHits += sm.hits
		out[i].TopKMisses += sm.misses
		out[i].TopKEvicted += sm.evictions
		sm.mu.Unlock()
	}
}
