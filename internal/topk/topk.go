package topk

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"toprr/internal/vec"
)

// Scorer evaluates linear scores of a fixed dataset under reduced
// weight vectors. A Scorer is an immutable snapshot: the versioned
// store hands out one Scorer per dataset generation, and in-flight
// queries keep scoring against theirs while writers publish successors.
// It is safe for concurrent use.
type Scorer struct {
	pts []vec.Vector
	d   int    // option-space dimensionality
	gen uint64 // dataset generation (0 for standalone scorers)

	// Struct-of-arrays mirror of pts for the batch scoring loop, built
	// lazily on the first top-k query (sync.Once keeps the Scorer safe
	// for concurrent use). lastCol[i] = pts[i][d-1] and
	// diff[j][i] = pts[i][j] - pts[i][d-1], exactly the operands of
	// ScorePoint, so columnar scoring is bit-identical to the scalar
	// path while the inner loop runs over contiguous float64 columns.
	soaOnce sync.Once
	lastCol []float64
	diff    [][]float64
}

// NewScorer wraps a dataset of d-dimensional options.
func NewScorer(pts []vec.Vector) *Scorer { return NewScorerAt(pts, 0) }

// NewScorerAt wraps a dataset as the snapshot of dataset generation gen.
// The slice is adopted, not copied: the caller guarantees it is never
// mutated afterwards.
func NewScorerAt(pts []vec.Vector, gen uint64) *Scorer {
	if len(pts) == 0 {
		panic("topk: empty dataset")
	}
	return &Scorer{pts: pts, d: pts[0].Dim(), gen: gen}
}

// Generation returns the dataset generation this scorer snapshots (0 for
// standalone scorers built outside a store).
func (s *Scorer) Generation() uint64 { return s.gen }

// Points returns the underlying option slice. It is shared, not copied:
// callers must treat it as read-only.
func (s *Scorer) Points() []vec.Vector { return s.pts }

// Dim returns the option-space dimensionality d.
func (s *Scorer) Dim() int { return s.d }

// PrefDim returns the preference-space dimensionality d-1.
func (s *Scorer) PrefDim() int { return s.d - 1 }

// Len returns the number of options.
func (s *Scorer) Len() int { return len(s.pts) }

// Point returns option i.
func (s *Scorer) Point(i int) vec.Vector { return s.pts[i] }

// FullWeight expands a reduced weight vector w in W to the full
// d-dimensional weight vector, deriving the last component as
// 1 - Σ w[j].
func (s *Scorer) FullWeight(w vec.Vector) vec.Vector {
	if len(w) != s.d-1 {
		panic(fmt.Sprintf("topk: reduced weight dim %d, want %d", len(w), s.d-1))
	}
	full := vec.New(s.d)
	copy(full, w)
	full[s.d-1] = 1 - w.Sum()
	return full
}

// Score returns S_w(p_i) for reduced weight vector w.
func (s *Scorer) Score(w vec.Vector, i int) float64 {
	return ScorePoint(w, s.pts[i])
}

// ScorePoint returns the score of an arbitrary point p (not necessarily
// in the dataset) under reduced weight vector w.
func ScorePoint(w vec.Vector, p vec.Vector) float64 {
	m := len(w)
	last := p[m]
	score := last // weight of last attribute starts at 1
	for j, wj := range w {
		score += wj * (p[j] - last)
	}
	return score
}

// buildSoA materializes the columnar scoring mirror. Called once per
// Scorer via soaOnce.
func (s *Scorer) buildSoA() {
	n := len(s.pts)
	s.lastCol = make([]float64, n)
	s.diff = make([][]float64, s.d-1)
	for j := range s.diff {
		s.diff[j] = make([]float64, n)
	}
	for i, p := range s.pts {
		last := p[s.d-1]
		s.lastCol[i] = last
		for j := 0; j < s.d-1; j++ {
			s.diff[j][i] = p[j] - last
		}
	}
}

// scoreInto writes ScorePoint(w, pts[idx]) for every member into dst
// (members nil = the whole dataset, dst sized accordingly) through the
// struct-of-arrays mirror. Each option accumulates its score in the
// same operation order as ScorePoint — start at the last attribute,
// then add wj*(pj - last) in ascending j — so the results are
// bit-identical to the scalar path while the inner loop streams over
// contiguous columns and allocates nothing.
func (s *Scorer) scoreInto(w vec.Vector, members []int, dst []float64) {
	m := len(w)
	if m != s.d-1 { // non-reduced weights: scalar fallback
		if members == nil {
			for i := range dst {
				dst[i] = ScorePoint(w, s.pts[i])
			}
			return
		}
		for t, idx := range members {
			dst[t] = ScorePoint(w, s.pts[idx])
		}
		return
	}
	s.soaOnce.Do(s.buildSoA)
	if members == nil {
		copy(dst, s.lastCol)
		for j := 0; j < m; j++ {
			wj, dj := w[j], s.diff[j]
			for i := range dst {
				dst[i] += wj * dj[i]
			}
		}
		return
	}
	for t, idx := range members {
		dst[t] = s.lastCol[idx]
	}
	for j := 0; j < m; j++ {
		wj, dj := w[j], s.diff[j]
		for t, idx := range members {
			dst[t] += wj * dj[idx]
		}
	}
}

// Result is the outcome of a top-k query: the k best option indices in
// score order (ties broken by ascending index for determinism), the k-th
// score, and canonical identities for set and order comparison. The
// identities are precomputed at construction so a Result is immutable
// and safe to share across the parallel solver's workers.
type Result struct {
	Ordered  []int   // option indices, best first
	KthScore float64 // score of Ordered[len-1], i.e. TopK(w) in the paper
	scores   []float64
	setKey   string
	orderKey string
}

// Kth returns the index of the top-k-th option.
func (r *Result) Kth() int { return r.Ordered[len(r.Ordered)-1] }

// SetKey returns a canonical identity of the (order-insensitive) top-k
// set.
func (r *Result) SetKey() string { return r.setKey }

// OrderKey returns a canonical identity of the score-ordered top-k
// result.
func (r *Result) OrderKey() string { return r.orderKey }

// SameSet reports whether two results contain the same top-k set.
func (r *Result) SameSet(o *Result) bool { return r.SetKey() == o.SetKey() }

// SameKth reports whether two results share the top-k-th option.
func (r *Result) SameKth(o *Result) bool { return r.Kth() == o.Kth() }

// Contains reports whether option i belongs to the top-k set.
func (r *Result) Contains(i int) bool {
	for _, x := range r.Ordered {
		if x == i {
			return true
		}
	}
	return false
}

func joinInts(ix []int) string {
	var b strings.Builder
	for _, x := range ix {
		b.WriteString(strconv.Itoa(x))
		b.WriteByte(',')
	}
	return b.String()
}

// scored pairs an option index with its score for selection.
type scored struct {
	idx   int
	score float64
}

// better is the top-k order: score descending, then index ascending, so
// results are deterministic under ties.
func better(a, b scored) bool {
	return a.score > b.score || (a.score == b.score && a.idx < b.idx)
}

// sortScratch bundles the transient buffers of one top-k computation,
// recycled through sortPool. Ownership rule: leased by exactly one TopK
// call from Get until Put — no reference into its buffers may survive
// the Put (results copy what they keep).
type sortScratch struct {
	heap   []scored
	scores []float64
}

var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

// for_ sizes the scratch for a selection of k out of n options.
func (ss *sortScratch) for_(k, n int) ([]scored, []float64) {
	if cap(ss.heap) < k {
		ss.heap = make([]scored, k)
	}
	if cap(ss.scores) < n {
		ss.scores = make([]float64, n)
	}
	ss.heap, ss.scores = ss.heap[:0], ss.scores[:n]
	return ss.heap, ss.scores
}

// siftDown restores the heap property below position i of a heap whose
// root is its worst member under better.
func siftDown(h []scored, i int) {
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && better(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && better(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// siftUp moves position i of such a heap up to its place.
func siftUp(h []scored, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h[parent], h[i]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// TopK runs a top-k query at reduced weight vector w over the options
// listed in active (indices into the dataset). When active is nil the
// whole dataset is considered. It panics if fewer than k options are
// available.
//
// Rank, the approximate-query fallback and every whole-dataset memo miss
// pass the whole dataset, so the candidates are selected, not sorted: a
// size-k heap whose root is the worst winner so far keeps the k best
// under the (score desc, index asc) order in O(n log k), and only the k
// winners are sorted. The order is total, so the winners and their
// order are exactly those of a full sort.
func (s *Scorer) TopK(w vec.Vector, k int, active []int) *Result {
	n := len(active)
	if active == nil {
		n = len(s.pts)
	}
	if k <= 0 || k > n {
		panic(fmt.Sprintf("topk: k=%d out of range for %d options", k, n))
	}
	ss := sortPool.Get().(*sortScratch)
	h, scores := ss.for_(k, n)
	s.scoreInto(w, active, scores)
	for i, sc := range scores {
		c := scored{idx: i, score: sc}
		if active != nil {
			c.idx = active[i]
		}
		if len(h) < k {
			h = append(h, c)
			siftUp(h, len(h)-1)
		} else if better(c, h[0]) {
			h[0] = c
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, func(a, b scored) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
	ordered := make([]int, k)
	rsc := make([]float64, k)
	for i, c := range h {
		ordered[i] = c.idx
		rsc[i] = c.score
	}
	r := newResult(ordered, rsc)
	sortPool.Put(ss)
	return r
}

// newResult assembles a Result from a score-ordered index list and the
// matching scores, precomputing the canonical set and order identities.
// The full score column (not just the k-th) is retained so patch-on-
// insert (patch.go) can splice a new option into the ranked list without
// rescoring the survivors.
func newResult(ordered []int, scores []float64) *Result {
	sorted := append([]int(nil), ordered...)
	sort.Ints(sorted)
	return &Result{
		Ordered:  ordered,
		KthScore: scores[len(scores)-1],
		scores:   scores,
		setKey:   joinInts(sorted),
		orderKey: joinInts(ordered),
	}
}

// Cache memoizes top-k results per vertex of the preference space.
// Splitting reuses parent vertices heavily, so TAS hits the cache on the
// majority of its queries. A Cache is bound to one (dataset subset, k)
// configuration; the TopRR recursion creates a fresh cache whenever
// Lemma 5 changes the active set or k. It is safe for concurrent use —
// the parallel solver shares one cache across its workers.
type Cache struct {
	scorer    *Scorer
	k         int
	active    []int
	limit     int // max memoized vertices (0 = unlimited)
	mu        sync.Mutex
	m         map[uint64]memoEntry
	hits      int
	misses    int
	evictions int // results not memoized because the cache was full
}

// memoEntry pairs a memoized result with the vertex it was computed at.
// The vertex is retained only for whole-dataset (nil active set)
// configurations — the patchable ones: patch-on-insert (patch.go) must
// score the inserted options *at each memoized vertex*, and the map key
// is a quantized hash from which the vertex cannot be recovered. The
// vertex is a private clone: lookup vertices may live in a recycled
// solver arena.
type memoEntry struct {
	w vec.Vector
	r *Result
}

// NewCache builds a cache for top-k queries with the given parameters.
func NewCache(scorer *Scorer, k int, active []int) *Cache {
	return &Cache{scorer: scorer, k: k, active: active, m: make(map[uint64]memoEntry)}
}

// NewBoundedCache is NewCache with a cap on memoized vertices; past the
// cap, lookups of unseen vertices compute without storing. Registry
// uses it so engine-shared caches stay bounded across query streams.
func NewBoundedCache(scorer *Scorer, k int, active []int, limit int) *Cache {
	c := NewCache(scorer, k, active)
	c.limit = limit
	return c
}

// NewPassthroughCache builds a Cache that never memoizes — every Get
// recomputes. It exists for the cache-effectiveness ablation benchmarks.
func NewPassthroughCache(scorer *Scorer, k int, active []int) *Cache {
	return &Cache{scorer: scorer, k: k, active: active}
}

// K returns the cache's k parameter.
func (c *Cache) K() int { return c.k }

// Active returns the active option subset (nil means all).
func (c *Cache) Active() []int { return c.active }

// Scorer returns the underlying scorer (the registry may rebind it on a
// generation advance, hence the lock).
func (c *Cache) Scorer() *Scorer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scorer
}

// Get returns the top-k result at vertex w, computing it on a miss.
func (c *Cache) Get(w vec.Vector) *Result {
	r, _ := c.Lookup(w)
	return r
}

// Lookup is Get, additionally reporting whether the result was served
// from the cache — so callers sharing a cache can attribute misses to
// their own queries.
func (c *Cache) Lookup(w vec.Vector) (*Result, bool) {
	if c.m == nil { // pass-through mode
		c.mu.Lock()
		c.misses++
		sc := c.scorer
		c.mu.Unlock()
		return sc.TopK(w, c.k, c.active), false
	}
	key := w.Hash(1e-10)
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		return e.r, true
	}
	// Snapshot the scorer pointer under the lock (rebind may swap it
	// concurrently) and compute outside it; a racing duplicate
	// computation is harmless (results are identical under either
	// generation's scorer — see rebind — and idempotent to store).
	sc := c.scorer
	c.mu.Unlock()
	r := sc.TopK(w, c.k, c.active)
	e := memoEntry{r: r}
	if c.active == nil {
		e.w = w.Clone()
	}
	c.mu.Lock()
	if c.limit <= 0 || len(c.m) < c.limit {
		c.m[key] = e
	} else {
		c.evictions++
	}
	c.misses++
	c.mu.Unlock()
	return r, false
}

// Stats reports cache hits and misses (total queries = hits + misses).
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports results the cache declined to memoize because it
// was full.
func (c *Cache) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len reports the number of memoized vertices.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// rebind points the cache at a new generation's scorer. Only sound when
// every option in the cache's active set is bit-identical between the
// old and new scorer (the registry's Advance guarantees it by dropping
// any configuration touching a dirty slot): then every memoized result,
// and every future computation by either a pinned old-generation solve
// or a new-generation solve, is identical under both scorers, so the
// same Cache object safely serves both sides.
func (c *Cache) rebind(sc *Scorer) {
	c.mu.Lock()
	c.scorer = sc
	c.mu.Unlock()
}
