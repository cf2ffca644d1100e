package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// regionsProcessedTotal counts regions examined by process() since
// process start, across all solves. Benchmark instrumentation.
var regionsProcessedTotal atomic.Int64

// RegionsProcessed returns the process-wide count of regions examined.
func RegionsProcessed() int64 { return regionsProcessedTotal.Load() }

// Solve runs the selected TopRR algorithm and returns the maximal
// top-ranking region oR together with instrumentation. It is
// SolveContext with a background context.
func Solve(p Problem, o Options) (*Result, error) {
	return SolveContext(context.Background(), p, o)
}

// SolveContext runs the TopRR pipeline — prefilter, partition, assemble
// — honoring cancellation and deadlines on ctx. The pipeline is the
// paper's: r-skyband pre-filtering (Section 6.3), recursive
// partitioning of wR (Sections 4-5), and assembly of oR from the impact
// halfspaces at the collected vertices (Theorem 1).
func SolveContext(ctx context.Context, p Problem, o Options) (*Result, error) {
	start := time.Now()
	o = o.withDefaults()
	// The Timeout budget also rides on the context so that every stage
	// is bounded, not only the partition's budget checks.
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(o.Timeout))
		defer cancel()
	}
	s := &solver{
		prob: p,
		opt:  o,
		rng:  rand.New(rand.NewSource(o.Seed + 1)),
		vall: make(map[uint64]ImpactVertex),
	}
	s.stats.InputOptions = p.Scorer.Len()

	// The assembly stream opens before the partition, so impact
	// vertices flow into assembly as regions are confirmed instead of
	// being buffered until the end.
	s.stream = ClipAssembler{}.NewStream(p.Scorer, o.ORVertexBudget)

	// Stage 1 — prefilter: discard options that can never rank among
	// the top-k anywhere in wR.
	active, err := gatedFilter(ctx, p, o, &s.stats)
	if err != nil {
		return nil, err
	}
	s.stats.FilteredOptions = len(active)
	s.stats.ProcessedMin = len(active)

	// Stage 2 — partition: recursively split wR until every region
	// passes the test, collecting impact vertices into Vall. The root
	// cache is the only one worth interning cross-query: its (k,
	// active-set) configuration is determined by (wR, k) alone, while
	// Lemma-5-derived configurations are region-specific.
	root := regionCtx{region: p.WR, cache: s.newCacheShared(p.K, active)}
	if err := s.drive(ctx, root, start); err != nil {
		return nil, err
	}

	// Stage 3 — assemble: intersect the impact halfspaces (Theorem 1).
	// Cancellation between the stages is still honored: a large Vall
	// makes assembly itself nontrivial work.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vall := s.sortedVall()
	ao := s.stream.Finish()
	s.stats.ImpactClips = ao.Clips
	s.stats.VallSize = len(vall)
	s.stats.UniqueImpacts = len(ao.Constraints) - 2*p.Scorer.Dim()
	s.stats.Elapsed = time.Since(start)
	return &Result{OR: ao.OR, ORConstraints: ao.Constraints, Vall: vall, Stats: s.stats, Problem: p}, nil
}

// solver carries the state of one Solve call. The mutex guards every
// shared mutable field (stats, vall, collectSets, rng) so that process()
// may run concurrently from the parallel driver's workers.
type solver struct {
	prob        Problem
	opt         Options
	mu          sync.Mutex
	rng         *rand.Rand
	vall        map[uint64]ImpactVertex // keyed by the quantized vertex hash
	stream      AssembleStream          // oR assembly fed by accept (nil for filter-only solvers)
	stats       Stats
	collectSets map[int]bool // non-nil when the UTK filter wants top-k set members
	onAccept    func(region *geom.Polytope, cache *topk.Cache)
	allOpts     []int // lazily built identity active set (guarded by mu)
}

// allOptions returns the identity active set [0, n), built once per
// solve and shared read-only afterwards.
func (s *solver) allOptions() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.allOpts == nil {
		s.allOpts = make([]int, s.prob.Scorer.Len())
		for i := range s.allOpts {
			s.allOpts[i] = i
		}
	}
	return s.allOpts
}

// addStats applies a mutation to the stats under the solver lock.
func (s *solver) addStats(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// budgetUsed reports regions+splits so far, under the lock.
func (s *solver) budgetUsed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Regions + s.stats.Splits
}

// regionCtx is a preference region awaiting processing together with its
// top-k context. Lemma 5 pruning gives children of a region a fresh
// cache with a smaller active set and decremented k.
type regionCtx struct {
	region *geom.Polytope
	cache  *topk.Cache
}

// newCache builds a solve-local top-k cache honoring the
// DisableTopKCache ablation.
func (s *solver) newCache(k int, active []int) *topk.Cache {
	if s.opt.DisableTopKCache {
		return topk.NewPassthroughCache(s.prob.Scorer, k, active)
	}
	return topk.NewCache(s.prob.Scorer, k, active)
}

// newCacheShared is newCache but interns the cache in the cross-query
// registry when one serving this solve's dataset generation is supplied
// (GetFor refuses scorers of other generations, so a solve pinned to an
// older snapshot falls back to a solve-local cache). Only root
// (prefilter-level) configurations go through here: they repeat across
// queries, whereas Lemma-5-derived sets are region-specific and would
// bloat the registry without reuse.
func (s *solver) newCacheShared(k int, active []int) *topk.Cache {
	if reg := s.opt.TopKCaches; reg != nil && !s.opt.DisableTopKCache {
		if c := reg.GetFor(s.prob.Scorer, k, active); c != nil {
			return c
		}
	}
	return s.newCache(k, active)
}

// process tests one region and either accepts it (recording its vertices
// in Vall) or splits it, returning the children to process. The driver
// checks cancellation and the budgets between regions.
func (s *solver) process(rc regionCtx) []regionCtx {
	regionsProcessedTotal.Add(1)
	cache := rc.cache
	verts := rc.region.VertexPoints()

	// TAS*: Lemma 5 — discard consistent top-λ options, decrement k.
	if s.opt.Alg == TASStar && !s.opt.DisableLemma5 {
		cache = s.lemma5(verts, cache)
		n := len(cache.Active())
		s.addStats(func(st *Stats) {
			if n < st.ProcessedMin {
				st.ProcessedMin = n
			}
		})
	}

	results := s.lookupAll(cache, verts)

	va, vb := s.firstViolation(results)
	if va < 0 { // region passes the test
		s.accept(rc.region, cache, verts, results)
		return nil
	}

	// TAS*: Lemma 7 — if all vertices share the same top-(k-1) set, the
	// impact halfspaces at the vertices already define the region's
	// TopRR solution; no further splitting is needed.
	if s.opt.Alg == TASStar && !s.opt.DisableLemma7 && s.sameTopKm1(results) {
		s.addStats(func(st *Stats) { st.Lemma7Accepts++ })
		s.accept(rc.region, cache, verts, results)
		return nil
	}

	// Choose candidate splitting pairs and perform the first cut that
	// divides the region into two non-empty parts (Lemma 4 guarantees
	// one exists under general position).
	if children, ok := s.trySplit(rc.region, cache, s.splitCandidates(verts, results, va, vb)); ok {
		return children
	}

	// Degenerate case: splits create vertices exactly on score-tie
	// hyperplanes, so the vertex-level top-k sets can disagree only
	// through ties while a genuine rank transition still crosses the
	// interior. Escalate to every pair (x, y) with x in the union of the
	// vertices' top-k sets and y any active option: if any such score
	// hyperplane strictly cuts the region, split on it. If none does,
	// every relevant score order is constant on the region's interior,
	// the interior is rank-invariant, and — because the k-th highest
	// score is a continuous function of w — the impact halfspaces at the
	// region's vertices are exact, so accepting is sound.
	if children, ok := s.tryEscalationSplit(rc.region, cache, results); ok {
		return children
	}
	s.addStats(func(st *Stats) { st.DegenerateStops++ })
	s.accept(rc.region, cache, verts, results)
	return nil
}

// trySplit attempts the candidate pairs in order and splits the region
// on the first hyperplane that strictly divides it.
func (s *solver) trySplit(region *geom.Polytope, cache *topk.Cache, pairs [][2]int) ([]regionCtx, bool) {
	for _, pair := range pairs {
		if children, ok := s.trySplitPair(region, cache, pair); ok {
			return children, true
		}
	}
	return nil, false
}

// trySplitPair attempts one candidate pair. The pair is screened with a
// cheap vertex-side count before paying for the full geometric split,
// so grazing hyperplanes (the common degenerate case) cost O(|V|)
// instead of a polytope construction.
func (s *solver) trySplitPair(region *geom.Polytope, cache *topk.Cache, pair [2]int) ([]regionCtx, bool) {
	hs, ok := splitHyperplane(s.prob.Scorer, pair[0], pair[1])
	if !ok {
		return nil, false
	}
	var nNeg, nPos int
	for _, v := range region.Verts {
		switch geom.Side(hs.Eval(v.Point)) {
		case -1:
			nNeg++
		case 1:
			nPos++
		}
		if nNeg > 0 && nPos > 0 {
			break
		}
	}
	if nNeg == 0 || nPos == 0 {
		return nil, false
	}
	neg, pos := region.Split(hs)
	if neg.IsEmpty() || pos.IsEmpty() {
		return nil, false
	}
	s.addStats(func(st *Stats) { st.Splits++ })
	return []regionCtx{
		{region: neg, cache: cache},
		{region: pos, cache: cache},
	}, true
}

// tryEscalationSplit attempts the degenerate-split fallback pairs —
// every (x, y) with x in the union of the vertices' top-k sets and y
// active — in a deterministic order, streaming them into the split
// attempt instead of materializing the union x active product (whose
// pair list and dedup map used to dominate the solve's allocations).
// Each unordered pair is attempted at its first occurrence in the scan,
// exactly the order the materialized list produced: a pair whose both
// ends are in the (sorted) union is skipped when seen from its larger
// end, having already been attempted from the smaller one.
func (s *solver) tryEscalationSplit(region *geom.Polytope, cache *topk.Cache, results []*topk.Result) ([]regionCtx, bool) {
	inUnion := make(map[int]bool)
	union := make([]int, 0, len(results[0].Ordered))
	for _, r := range results {
		for _, idx := range r.Ordered {
			if !inUnion[idx] {
				inUnion[idx] = true
				union = append(union, idx)
			}
		}
	}
	sort.Ints(union)
	active := cache.Active()
	if active == nil {
		active = s.allOptions()
	}
	for _, x := range union {
		for _, y := range active {
			if x == y || (inUnion[y] && y < x) {
				continue
			}
			pair := [2]int{x, y}
			if y < x {
				pair = [2]int{y, x}
			}
			if children, ok := s.trySplitPair(region, cache, pair); ok {
				return children, true
			}
		}
	}
	return nil, false
}

// firstViolation returns indices of the first vertex pair violating the
// region test, or (-1, -1) if the region passes. For PAC the test is
// order-sensitive (identical ranked top-k result everywhere, strictly
// finer than kIPR); for TAS and TAS* it is the kIPR test of Lemma 3
// (same top-k set and same top-k-th option).
func (s *solver) firstViolation(results []*topk.Result) (int, int) {
	base := results[0]
	for i := 1; i < len(results); i++ {
		r := results[i]
		if s.opt.Alg == PAC {
			if r.OrderKey() != base.OrderKey() {
				return 0, i
			}
			continue
		}
		if !r.SameSet(base) || !r.SameKth(base) {
			return 0, i
		}
	}
	return -1, -1
}

// sameTopKm1 reports whether all vertices share the same top-(k-1) set
// (the hypothesis of Lemma 7). For k == 1 the condition is vacuous: the
// lemma degenerates to Lemma 6 and always applies.
func (s *solver) sameTopKm1(results []*topk.Result) bool {
	k := len(results[0].Ordered)
	if k == 1 {
		return true
	}
	for _, r := range results[1:] {
		if !samePrefixSet(results[0], r, k-1) {
			return false
		}
	}
	return true
}

// samePrefixSet reports whether the first lambda entries of two top-k
// results form the same option set. It sorts copies in small stack
// buffers and compares elementwise — no canonical string key is ever
// materialized, so the comparison is allocation-free for lambda <= 64.
func samePrefixSet(ra, rb *topk.Result, lambda int) bool {
	var bufA, bufB [64]int
	var a, b []int
	if lambda <= len(bufA) {
		a, b = bufA[:lambda], bufB[:lambda]
	} else {
		a, b = make([]int, lambda), make([]int, lambda)
	}
	copy(a, ra.Ordered[:lambda])
	copy(b, rb.Ordered[:lambda])
	sortSmall(a)
	sortSmall(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortSmall is an insertion sort: prefix lengths are tiny.
func sortSmall(ix []int) {
	for i := 1; i < len(ix); i++ {
		for j := i; j > 0 && ix[j] < ix[j-1]; j-- {
			ix[j], ix[j-1] = ix[j-1], ix[j]
		}
	}
}

// lemma5 implements the consistent top-λ pruning of Section 5.1: if all
// vertices of the region share the same top-λ set for some λ < k, those
// λ options can be discarded and k reduced, without changing the TopRR
// output. It returns the (possibly new) top-k context.
func (s *solver) lemma5(verts []vec.Vector, cache *topk.Cache) *topk.Cache {
	k := cache.K()
	if k <= 1 {
		return cache
	}
	results := s.lookupAll(cache, verts)
	lambda := 0
	for l := k - 1; l >= 1; l-- {
		same := true
		for _, r := range results[1:] {
			if !samePrefixSet(results[0], r, l) {
				same = false
				break
			}
		}
		if same {
			lambda = l
			break
		}
	}
	if lambda == 0 {
		return cache
	}
	// Φ = the common top-λ set (indices from the first vertex's result).
	phi := make(map[int]bool, lambda)
	for _, idx := range results[0].Ordered[:lambda] {
		phi[idx] = true
	}
	oldActive := cache.Active()
	newActive := make([]int, 0, len(oldActive)-lambda)
	if oldActive == nil {
		for i := 0; i < s.prob.Scorer.Len(); i++ {
			if !phi[i] {
				newActive = append(newActive, i)
			}
		}
	} else {
		for _, i := range oldActive {
			if !phi[i] {
				newActive = append(newActive, i)
			}
		}
	}
	s.addStats(func(st *Stats) { st.Lemma5Prunes += lambda })
	return s.newCache(k-lambda, newActive)
}

// lookupAll looks up the top-k result at every vertex, counting the
// queries and the misses in the solve's stats.
func (s *solver) lookupAll(cache *topk.Cache, verts []vec.Vector) []*topk.Result {
	results := make([]*topk.Result, len(verts))
	miss := 0
	for i, v := range verts {
		r, hit := cache.Lookup(v)
		results[i] = r
		if !hit {
			miss++
		}
	}
	s.addStats(func(st *Stats) {
		st.TopKQueries += len(verts)
		st.TopKMisses += miss
	})
	return results
}

// accept records a confirmed region: its defining vertices (with their
// TopK scores) join Vall, and — when the UTK filter is collecting — the
// region's top-k set members are recorded. The onAccept hook (used by
// reverse top-k) observes the region with its final top-k context.
func (s *solver) accept(region *geom.Polytope, cache *topk.Cache, verts []vec.Vector, results []*topk.Result) {
	s.mu.Lock()
	s.stats.Regions++
	for i, v := range verts {
		key := v.Hash(vallQuantum)
		if _, ok := s.vall[key]; !ok {
			iv := ImpactVertex{W: v, KthScore: results[i].KthScore}
			s.vall[key] = iv
			// Streaming assembly: new-unique vertices flow into the
			// assembler the moment their region is confirmed.
			if s.stream != nil {
				s.stream.Push(iv)
			}
		}
	}
	if s.collectSets != nil {
		for _, r := range results {
			for _, idx := range r.Ordered {
				s.collectSets[idx] = true
			}
		}
	}
	s.mu.Unlock()
	if s.onAccept != nil {
		s.onAccept(region, cache)
	}
}

// splitCandidates produces the ordered list of option pairs to try as
// splitting hyperplanes, most preferred first, per Section 4.2.1 and the
// k-switch enhancement of Section 5.3.
func (s *solver) splitCandidates(verts []vec.Vector, results []*topk.Result, va, vb int) [][2]int {
	ra, rb := results[va], results[vb]
	if ra.SameSet(rb) {
		// Case 2: same top-k set, different top-k-th option (PAC can land
		// here with an order-only difference; pick the first inverted pair).
		if ra.Kth() != rb.Kth() {
			return [][2]int{{ra.Kth(), rb.Kth()}}
		}
		return s.orderInversionPairs(ra, rb)
	}
	// Case 1: different top-k sets.
	onlyA, onlyB := setDifferences(ra, rb)
	var cands [][2]int
	useKSwitch := s.opt.Alg == TASStar && !s.opt.DisableKSwitch
	if useKSwitch {
		if pair, ok := s.kSwitchPair(verts[va], verts[vb], ra, rb); ok {
			cands = append(cands, pair)
		} else if pair, ok := s.kSwitchPair(verts[vb], verts[va], rb, ra); ok {
			cands = append(cands, pair)
		}
	}
	// Generic Case-1 pairs (random order), used by PAC/TAS directly and
	// as fallback for TAS*.
	s.mu.Lock()
	perm := s.rng.Perm(len(onlyA) * len(onlyB))
	s.mu.Unlock()
	for _, t := range perm {
		cands = append(cands, [2]int{onlyA[t/len(onlyB)], onlyB[t%len(onlyB)]})
	}
	return cands
}

// setDifferences returns the options only in ra's set and only in rb's.
func setDifferences(ra, rb *topk.Result) (onlyA, onlyB []int) {
	inB := make(map[int]bool, len(rb.Ordered))
	for _, x := range rb.Ordered {
		inB[x] = true
	}
	inA := make(map[int]bool, len(ra.Ordered))
	for _, x := range ra.Ordered {
		inA[x] = true
		if !inB[x] {
			onlyA = append(onlyA, x)
		}
	}
	for _, x := range rb.Ordered {
		if !inA[x] {
			onlyB = append(onlyB, x)
		}
	}
	return onlyA, onlyB
}

// orderInversionPairs lists pairs whose relative order differs between
// the two results (used by PAC's order-sensitive refinement).
func (s *solver) orderInversionPairs(ra, rb *topk.Result) [][2]int {
	posB := make(map[int]int, len(rb.Ordered))
	for pos, x := range rb.Ordered {
		posB[x] = pos
	}
	var out [][2]int
	for i := 0; i < len(ra.Ordered); i++ {
		for j := i + 1; j < len(ra.Ordered); j++ {
			x, y := ra.Ordered[i], ra.Ordered[j]
			if posB[x] > posB[y] { // inverted relative order
				out = append(out, [2]int{x, y})
			}
		}
	}
	s.mu.Lock()
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	s.mu.Unlock()
	return out
}

// kSwitchPair implements Definition 4: pz1 is the top-k-th option at va;
// pz2 is the option of vb's top-k set that scores below pz1 at va but
// above it at vb, with the smallest score gap at va.
func (s *solver) kSwitchPair(va, vb vec.Vector, ra, rb *topk.Result) ([2]int, bool) {
	sc := s.prob.Scorer
	pz1 := ra.Kth()
	sa1 := sc.Score(va, pz1)
	sb1 := sc.Score(vb, pz1)
	best, bestGap := -1, 0.0
	for _, pz := range rb.Ordered {
		if pz == pz1 {
			continue
		}
		saz := sc.Score(va, pz)
		sbz := sc.Score(vb, pz)
		if saz < sa1 && sbz > sb1 {
			gap := sa1 - saz
			if best < 0 || gap < bestGap {
				best, bestGap = pz, gap
			}
		}
	}
	if best < 0 {
		return [2]int{}, false
	}
	return [2]int{pz1, best}, true
}

// splitHyperplane builds the preference-space hyperplane
// wHP(p_i, p_j) = {w : S_w(p_i) = S_w(p_j)} as a halfspace whose >= side
// is S_w(p_i) >= S_w(p_j). It reports false for (numerically) parallel
// score functions, which cannot cut any region.
func splitHyperplane(sc *topk.Scorer, i, j int) (geom.Halfspace, bool) {
	p, q := sc.Point(i), sc.Point(j)
	m := sc.PrefDim()
	a := vec.New(m)
	for t := 0; t < m; t++ {
		a[t] = (p[t] - p[m]) - (q[t] - q[m])
	}
	if a.NormInf() < geom.Eps {
		return geom.Halfspace{}, false
	}
	return geom.NewHalfspace(a, -(p[m] - q[m])), true
}

// UTKFilter computes exactly the options that appear in the top-k result
// of at least one weight vector in wR — the fourth filtering alternative
// of Section 6.3 (after [30]). It partitions wR into kIPRs with plain
// TAS and unions the (constant) top-k set of each partition.
func UTKFilter(pts []vec.Vector, k int, wr *geom.Polytope) ([]int, error) {
	return UTKFilterContext(context.Background(), pts, k, wr)
}

// UTKFilterContext is UTKFilter honoring cancellation on ctx. It runs
// the kIPR partitioning sequentially with top-k set collection.
func UTKFilterContext(ctx context.Context, pts []vec.Vector, k int, wr *geom.Polytope) ([]int, error) {
	p := NewProblem(pts, k, wr)
	s := &solver{
		prob:        p,
		opt:         Options{Alg: TAS}.withDefaults(),
		rng:         rand.New(rand.NewSource(1)),
		vall:        make(map[uint64]ImpactVertex),
		collectSets: make(map[int]bool),
	}
	s.stats.InputOptions = p.Scorer.Len()
	active, err := rSkyband(ctx, p)
	if err != nil {
		return nil, err
	}
	s.stats.FilteredOptions = len(active)
	root := regionCtx{region: p.WR, cache: s.newCache(p.K, active)}
	if err := s.drive(ctx, root, time.Now()); err != nil {
		return nil, fmt.Errorf("core: UTK filter: %w", err)
	}
	out := make([]int, 0, len(s.collectSets))
	for idx := range s.collectSets {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, nil
}
