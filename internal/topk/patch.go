package topk

// Patch-on-insert: incremental cross-generation cache repair. A
// pure-insert batch cannot change the score, rank or identity of any
// existing option — it can only introduce new options at the tail of
// the dataset. A memoized top-k entry therefore stays correct as-is
// unless an inserted option beats its k-th score, and in that case it
// is repaired exactly by scoring *only the inserted options* at the
// memoized vertex and splicing the winners into the ranked list:
// O(entries × inserts) scalar scores per advance, instead of the
// drop-and-recompute path's O(entries × n) rescore on the next warm-up.
//
// Bit-identity argument: a recompute over the grown dataset ranks all
// options under the (score desc, index asc) order. Relative to the old
// generation's ranking, the surviving entries keep their exact order
// (their scores and indices are untouched), and each inserted option
// lands at its comparator position — with ties resolving against it
// relative to every pre-existing option, since inserted slots are
// assigned past the old tail and the comparator breaks ties by
// ascending index. Splicing performs precisely that insertion, and
// ScorePoint is bit-identical to the SoA scoring a recompute would use
// (see Scorer.scoreInto), so a patched entry equals the recomputed one
// bit for bit, ties included. The randomized oracle in patch_test.go
// pins this against fresh recomputes.

import "toprr/internal/vec"

// PatchSummary reports what one AdvanceInsert did to the registry's
// interned caches. It is the region-delta signal for standing queries:
// when Changed() is false, no memoized top-k admitted any inserted
// option, so every standing result region derived from these caches is
// untouched by the batch.
type PatchSummary struct {
	Configs  int  // patchable (whole-dataset) configurations processed
	Entries  int  // memo entries examined
	Patched  int  // entries changed by splicing an inserted option in
	Fallback bool // delta broke the pure-insert contract; the drop path ran instead
}

// Changed reports whether any memoized entry changed under the patch.
// It is a pure patch-plane observation — NOT a safe suppression signal:
// a Fallback summary dropped memos wholesale with Patched == 0.
// Consumers that skip work when "nothing changed" (the notification
// hub) must use MaybeChanged.
func (s PatchSummary) Changed() bool { return s.Patched > 0 }

// MaybeChanged is the conservative region-delta signal: false proves no
// memoized top-k state moved under the advance — no entry was patched
// and the pure-insert contract held (no fallback to the drop path).
// Only a false MaybeChanged licenses a standing-query plane to suppress
// re-evaluation; the fallback case admits a region change Changed()
// would miss.
func (s PatchSummary) MaybeChanged() bool { return s.Patched > 0 || s.Fallback }

// splicePos returns the comparator position of (slot, s) in a ranked
// entry list — the index before which it belongs under the shared
// (score desc, index asc) order. len(idx) means "after the last entry".
func splicePos(idx []int, scores []float64, slot int, s float64) int {
	for i, sc := range scores {
		if s > sc || (s == sc && slot < idx[i]) {
			return i
		}
	}
	return len(idx)
}

// spliceAt inserts (slot, s) at position pos, growing the lists while
// they are below k and dropping the displaced last entry otherwise. The
// slices must be private to the caller.
func spliceAt(idx []int, scores []float64, k, pos, slot int, s float64) ([]int, []float64) {
	if len(idx) < k {
		idx = append(idx, 0)
		scores = append(scores, 0)
	}
	copy(idx[pos+1:], idx[pos:])
	copy(scores[pos+1:], scores[pos:])
	idx[pos] = slot
	scores[pos] = s
	return idx, scores
}

// spliceResult patches one memoized whole-dataset Result for a batch of
// inserted slots. It returns the original Result (and false) when no
// insert cracks the top-k — the carried-forward entry is shared by
// pointer with the old generation, never copied.
func spliceResult(r *Result, w vec.Vector, sc *Scorer, inserted []int, k int) (*Result, bool) {
	var ord []int
	var scs []float64
	for _, slot := range inserted {
		s := ScorePoint(w, sc.Point(slot))
		ci, cs := r.Ordered, r.scores
		if ord != nil {
			ci, cs = ord, scs
		}
		pos := splicePos(ci, cs, slot, s)
		if pos == len(ci) && len(ci) >= k {
			continue // ranks below the k-th: the entry is already exact
		}
		if ord == nil {
			ord = append(make([]int, 0, k), r.Ordered...)
			scs = append(make([]float64, 0, k), r.scores...)
		}
		ord, scs = spliceAt(ord, scs, k, pos, slot, s)
	}
	if ord == nil {
		return r, false
	}
	return newResult(ord, scs), true
}

// patchAdvance builds this whole-dataset cache's successor for a
// pure-insert generation, patching every memoized entry in place of
// recomputation. The successor is a new object: in-flight solves pinned
// to the old generation keep this one untouched, and entries no insert
// cracked are shared by pointer. The
// eviction counter is carried so Registry.Evictions stays monotone when
// this object retires.
func (c *Cache) patchAdvance(sc *Scorer, inserted []int) (*Cache, PatchSummary) {
	var sum PatchSummary
	next := &Cache{scorer: sc, k: c.k, limit: c.limit}
	c.mu.Lock()
	next.evictions = c.evictions
	next.m = make(map[uint64]memoEntry, len(c.m))
	for key, e := range c.m {
		sum.Entries++
		r2, changed := spliceResult(e.r, e.w, sc, inserted, c.k)
		if changed {
			sum.Patched++
		}
		next.m[key] = memoEntry{w: e.w, r: r2}
	}
	c.mu.Unlock()
	return next, sum
}

// AdvanceInsert moves the registry to a new dataset generation produced
// by a pure-insert batch, repairing interned caches instead of the
// dropping Advance performs. inserted must be exactly the new tail
// slots [oldLen, newLen) in ascending order (store.Delta.Inserted
// provides this); any other delta falls back to Advance's drop
// semantics, reported via the summary's Fallback flag.
//
// Explicit-active configurations only rebind — an insert cannot touch
// their members. Whole-dataset configurations are patched entry by
// entry (see spliceResult). The returned summary is the
// region-delta signal described on PatchSummary.
func (r *Registry) AdvanceInsert(sc *Scorer, inserted []int) PatchSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldLen, newLen := r.scorer.Len(), sc.Len()
	ok := len(inserted) > 0 && newLen == oldLen+len(inserted)
	if ok {
		for t, s := range inserted {
			if s != oldLen+t {
				ok = false
				break
			}
		}
	}
	if !ok {
		r.advanceLocked(sc, inserted)
		return PatchSummary{Fallback: true}
	}

	var sum PatchSummary
	for key, c := range r.m {
		if c.active != nil {
			c.rebind(sc) // inserts cannot touch an explicit active set
			continue
		}
		sum.Configs++
		next, s := c.patchAdvance(sc, inserted)
		h, m := c.Stats()
		r.retiredHits += h
		r.retiredMisses += m
		sum.Entries += s.Entries
		sum.Patched += s.Patched
		r.m[key] = next
	}
	r.scorer = sc
	r.patchInserts += len(inserted)
	r.patchedEntries += sum.Patched
	if !sum.Changed() {
		r.untouchedAdvances++
	}
	return sum
}

// PatchStats reports the cumulative patch-on-insert counters:
// patchedEntries is memo entries changed by AdvanceInsert splices,
// patchInserts the options applied through the patch path, and
// untouchedAdvances the patch advances in which no memoized top-k
// changed — batches proven to leave every standing result region
// unchanged.
func (r *Registry) PatchStats() (patchedEntries, patchInserts, untouchedAdvances int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.patchedEntries, r.patchInserts, r.untouchedAdvances
}
