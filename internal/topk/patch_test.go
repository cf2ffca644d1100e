package topk

// The randomized patch-vs-recompute oracle (ISSUE 7 / ROADMAP item 3):
// random mutation sequences — pure-insert batches routed through
// AdvanceInsert, deletes/updates/mixed batches through Advance —
// asserting after every advance that each
// memoized entry served by the patched caches is bit-identical (order,
// tie-breaks, every score) to a fresh recompute over the new
// generation. Runs under -race in CI alongside the rest of the package.

import (
	"math/rand"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/vec"
)

// patchOracleVertex draws a reduced weight vector safely inside the
// simplex.
func patchOracleVertex(rng *rand.Rand, d int) vec.Vector {
	w := vec.New(d - 1)
	for j := range w {
		w[j] = rng.Float64() / float64(d)
	}
	return w
}

// swapDelete removes slot i with the store's swap-delete semantics and
// returns the dirty slots it produces.
func swapDelete(pts []vec.Vector, i int) ([]vec.Vector, []int) {
	last := len(pts) - 1
	dirty := []int{i}
	if i != last {
		pts[i] = pts[last]
		dirty = append(dirty, last)
	}
	return pts[:last], dirty
}

func TestPatchAdvanceOracle(t *testing.T) {
	// The rows once also varied the shard count; they keep their names
	// and seeds so that no dataset the oracle covered is lost.
	for _, row := range []struct {
		name string
		seed int64
	}{{"S1", 41}, {"S2", 42}, {"S3", 43}, {"S8", 48}} {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(row.seed))
			const k = 6
			n, d := 80, 4
			pts := randomPts(rng, n, d)
			gen := uint64(1)
			sc := NewScorerAt(append([]vec.Vector(nil), pts...), gen)
			reg := NewRegistry(sc)
			cache := reg.Get(k, nil)

			verts := make([]vec.Vector, 12)
			for i := range verts {
				verts[i] = patchOracleVertex(rng, d)
			}
			warm := func() {
				for _, w := range verts {
					cache.Get(w)
				}
			}
			check := func(round int) {
				oracle := NewScorer(append([]vec.Vector(nil), pts...))
				for vi, w := range verts {
					got := cache.Get(w)
					want := oracle.TopK(w, k, nil)
					if got.OrderKey() != want.OrderKey() || got.KthScore != want.KthScore {
						t.Fatalf("round %d vertex %d: got %v (kth %v), want %v (kth %v)",
							round, vi, got.Ordered, got.KthScore, want.Ordered, want.KthScore)
					}
					for i := range want.scores {
						if got.scores[i] != want.scores[i] {
							t.Fatalf("round %d vertex %d: score[%d] = %v, want %v",
								round, vi, i, got.scores[i], want.scores[i])
						}
					}
				}
			}

			warm()
			check(0)
			for round := 1; round <= 30; round++ {
				var dirty []int
				var inserted []int
				switch op := rng.Intn(4); {
				case op == 0 || len(pts) < k+4: // pure-insert batch
					batch := 1 + rng.Intn(3)
					for b := 0; b < batch; b++ {
						var p vec.Vector
						if rng.Intn(4) == 0 {
							// Duplicate an existing option: forces exact
							// score ties through the splice comparator.
							p = pts[rng.Intn(len(pts))].Clone()
						} else {
							p = randomPts(rng, 1, d)[0]
						}
						inserted = append(inserted, len(pts))
						pts = append(pts, p)
					}
				case op == 1: // swap-delete
					pts, dirty = swapDelete(pts, rng.Intn(len(pts)))
				case op == 2: // update in place
					i := rng.Intn(len(pts))
					pts[i] = randomPts(rng, 1, d)[0]
					dirty = []int{i}
				default: // mixed: update + insert in one batch
					i := rng.Intn(len(pts))
					pts[i] = randomPts(rng, 1, d)[0]
					dirty = []int{i, len(pts)}
					pts = append(pts, randomPts(rng, 1, d)[0])
				}
				gen++
				sc = NewScorerAt(append([]vec.Vector(nil), pts...), gen)
				if inserted != nil {
					if sum := reg.AdvanceInsert(sc, inserted); sum.Fallback {
						t.Fatalf("round %d: pure insert fell back to drop", round)
					}
				} else {
					reg.Advance(sc, dirty)
				}
				cache = reg.Get(k, nil)
				check(round) // patched entries must already be exact
				warm()       // refill what the drop path lost
				check(round)
			}

			patched, pins, _ := reg.PatchStats()
			if pins == 0 {
				t.Error("no inserts went through the patch path")
			}
			t.Logf("patched %d entries over %d patch-inserted options", patched, pins)
		})
	}
}

// TestPatchAdvanceUntouchedInsert: an insert that cracks no memoized
// top-k (a dominated option scoring below every memoized k-th) patches
// nothing, drops nothing — entry count unchanged, post-advance lookups
// all hits — and reports Changed() == false: the region-delta signal
// that every standing result survived the batch.
func TestPatchAdvanceUntouchedInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const k, n, d = 5, 400, 4
	pts := randomPts(rng, n, d)
	sc1 := NewScorerAt(pts, 1)
	reg := NewRegistry(sc1)
	cache := reg.Get(k, nil)
	for i := 0; i < 10; i++ {
		cache.Get(patchOracleVertex(rng, d))
	}
	entries := cache.Len()

	// The all-zeros option scores 0 under every weight vector while
	// every random option scores positive: it can crack no top-k.
	pts2 := append(append([]vec.Vector(nil), pts...), vec.New(d))
	sc2 := NewScorerAt(pts2, 2)
	sum := reg.AdvanceInsert(sc2, []int{n})
	if sum.Changed() || sum.Patched != 0 {
		t.Fatalf("dominated insert reported changes: %+v", sum)
	}
	if sum.Fallback {
		t.Fatal("pure insert fell back")
	}
	cache = reg.Get(k, nil)
	if got := cache.Len(); got != entries {
		t.Errorf("entry count %d -> %d; an untouched advance must drop zero entries", entries, got)
	}
	// The successor starts its hit/miss counters fresh (the retired
	// object's fold into Registry.Stats); what matters is that every
	// warm vertex still serves from memory — zero new misses.
	rng = rand.New(rand.NewSource(77)) // replay the same vertices
	_ = randomPts(rng, n, d)
	for i := 0; i < 10; i++ {
		if _, hit := cache.Lookup(patchOracleVertex(rng, d)); !hit {
			t.Error("warm vertex missed after untouched advance")
		}
	}
	if _, misses := cache.Stats(); misses != 0 {
		t.Errorf("%d misses after untouched advance, want 0", misses)
	}
	if _, _, untouched := reg.PatchStats(); untouched != 1 {
		t.Errorf("untouchedAdvances = %d, want 1", untouched)
	}
}

// TestPatchAdvancePinnedOldGeneration: the successor-object pattern —
// after AdvanceInsert the retired cache object keeps answering solves
// pinned to the old generation with old-generation results.
func TestPatchAdvancePinnedOldGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const k, n, d = 4, 60, 4
	pts := randomPts(rng, n, d)
	sc1 := NewScorerAt(pts, 1)
	reg := NewRegistry(sc1)
	old := reg.Get(k, nil)
	w := patchOracleVertex(rng, d)
	old.Get(w)

	// Insert an option that certainly cracks every top-k: near the
	// all-ones corner it dominates the random points.
	best := vec.New(d)
	for j := range best {
		best[j] = 0.999
	}
	pts2 := append(append([]vec.Vector(nil), pts...), best)
	sc2 := NewScorerAt(pts2, 2)
	sum := reg.AdvanceInsert(sc2, []int{n})
	if !sum.Changed() {
		t.Fatal("dominant insert patched nothing")
	}

	oldWant := sc1.TopK(w, k, nil)
	if got := old.Get(w); got.OrderKey() != oldWant.OrderKey() {
		t.Errorf("pinned old cache: got %v, want %v", got.Ordered, oldWant.Ordered)
	}
	newWant := sc2.TopK(w, k, nil)
	if got := reg.Get(k, nil).Get(w); got.OrderKey() != newWant.OrderKey() {
		t.Errorf("patched cache: got %v, want %v", got.Ordered, newWant.Ordered)
	}
	if newWant.Ordered[0] != n {
		t.Fatalf("test setup: dominant option not ranked first (%v)", newWant.Ordered)
	}
}

// TestAdvanceInsertFallback: a delta that breaks the pure-insert
// contract (non-contiguous slots) must take Advance's drop semantics,
// not corrupt the patch path.
func TestAdvanceInsertFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const k, n, d = 3, 30, 3
	pts := randomPts(rng, n, d)
	sc1 := NewScorerAt(pts, 1)
	reg := NewRegistry(sc1)
	reg.Get(k, nil).Get(patchOracleVertex(rng, d))

	// An update masquerading as an insert: slot 5 changed, same length
	// plus one appended.
	pts2 := append(append([]vec.Vector(nil), pts...), patchOracleVertex(rng, d+1))
	pts2[5] = patchOracleVertex(rng, d+1)
	sc2 := NewScorerAt(pts2, 2)
	sum := reg.AdvanceInsert(sc2, []int{5, n})
	if !sum.Fallback {
		t.Fatal("non-contiguous delta did not fall back to the drop path")
	}
	// The whole-dataset config must have been dropped (drop semantics),
	// and a fresh one must answer from the new generation.
	w := patchOracleVertex(rng, d)
	want := sc2.TopK(w, k, nil)
	if got := reg.Get(k, nil).Get(w); got.OrderKey() != want.OrderKey() {
		t.Errorf("post-fallback lookup: got %v, want %v", got.Ordered, want.Ordered)
	}
}

// TestAllocsNoopRegistryAdvance gates the satellite fix: a pure-insert
// delta (all dirty slots at or beyond the old length) reaching an
// registry holding only explicit-active configurations is a
// no-op advance — rebind the survivors, swap the scorer — and must not
// allocate at all.
func TestAllocsNoopRegistryAdvance(t *testing.T) {
	skipUnderRace(t)
	const runs = 100
	base := allocDataset(32, 3, 5)
	sc := NewScorerAt(append([]vec.Vector(nil), base...), 1)
	r := NewRegistry(sc)
	r.Get(4, []int{0, 1, 2, 3, 4, 5}).Get(vec.Of(0.3, 0.2))
	r.Get(2, []int{7, 8, 9}).Get(vec.Of(0.1, 0.4))

	// Pre-build every generation the timed loop advances through: one
	// appended option per run (the warm-up call included).
	pts := base
	scorers := make([]*Scorer, runs+2)
	dirties := make([][]int, runs+2)
	for i := range scorers {
		dirties[i] = []int{len(pts)}
		pts = append(append([]vec.Vector(nil), pts...), vec.Of(0.5, 0.5, 0.5))
		scorers[i] = NewScorerAt(pts, uint64(i+2))
	}
	step := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r.Advance(scorers[step], dirties[step])
		step++
	})
	if allocs != 0 {
		t.Fatalf("no-op Advance allocates %.1f per run, want 0", allocs)
	}
	if r.Len() != 2 {
		t.Fatalf("no-op advances dropped configs: len=%d", r.Len())
	}
}

// TestAllocsAdvanceInsertExplicitOnly: AdvanceInsert over a registry
// with no patchable configuration is the same no-op and likewise must
// not allocate.
func TestAllocsAdvanceInsertExplicitOnly(t *testing.T) {
	skipUnderRace(t)
	const runs = 100
	base := allocDataset(32, 3, 6)
	sc := NewScorerAt(append([]vec.Vector(nil), base...), 1)
	r := NewRegistry(sc)
	r.Get(3, []int{0, 1, 2, 3}).Get(vec.Of(0.25, 0.25))

	pts := base
	scorers := make([]*Scorer, runs+2)
	inserts := make([][]int, runs+2)
	for i := range scorers {
		inserts[i] = []int{len(pts)}
		pts = append(append([]vec.Vector(nil), pts...), vec.Of(0.4, 0.4, 0.4))
		scorers[i] = NewScorerAt(pts, uint64(i+2))
	}
	step := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if sum := r.AdvanceInsert(scorers[step], inserts[step]); sum.Fallback {
			t.Fatal("pure insert fell back")
		}
		step++
	})
	if allocs != 0 {
		t.Fatalf("explicit-only AdvanceInsert allocates %.1f per run, want 0", allocs)
	}
}

// TestMaybeChangedFallbackHazard pins the fallback hazard fix (ISSUE
// 8): a summary whose advance dropped memos without splicing anything —
// a fallback to the drop path — reports Changed() false, so a notification plane keying
// suppression off Changed() would provably miss updates. MaybeChanged
// must be true in every such case, and false only for the genuinely
// inert advance.
func TestMaybeChangedFallbackHazard(t *testing.T) {
	cases := []struct {
		name string
		sum  PatchSummary
		want bool
	}{
		{"inert", PatchSummary{Configs: 2, Entries: 9}, false},
		{"patched", PatchSummary{Entries: 4, Patched: 1}, true},
		{"fallback", PatchSummary{Fallback: true}, true},
	}
	for _, c := range cases {
		if got := c.sum.MaybeChanged(); got != c.want {
			t.Errorf("%s: MaybeChanged() = %v, want %v", c.name, got, c.want)
		}
	}
	if (PatchSummary{Fallback: true}).Changed() {
		t.Error("Changed() on a fallback summary became true; MaybeChanged exists because it is not")
	}

	// End to end: an inserted list that breaks the contiguous-tail
	// contract runs the drop path and must come back MaybeChanged even
	// though nothing was patched.
	rng := rand.New(rand.NewSource(85))
	pts := randomPts(rng, 40, 3)
	sc := NewScorerAt(append([]vec.Vector(nil), pts...), 1)
	reg := NewRegistry(sc)
	reg.Get(4, nil).Get(patchOracleVertex(rng, 3))

	pts = append(append([]vec.Vector(nil), pts...), vec.Of(0.5, 0.5, 0.5), vec.Of(0.4, 0.4, 0.4))
	scn := NewScorerAt(pts, 2)
	sum := reg.AdvanceInsert(scn, []int{41, 40}) // out of order: contract broken
	if !sum.Fallback {
		t.Fatal("out-of-order inserted list did not fall back")
	}
	if sum.Changed() {
		t.Fatal("fallback summary reports Changed")
	}
	if !sum.MaybeChanged() {
		t.Fatal("fallback summary reports !MaybeChanged: suppression would miss the dropped memos")
	}
}

// economyScored replays the vertices against the registry's current
// whole-dataset (k, nil) cache and returns the options scored to serve
// them, zero when every lookup hits, with each answer's order key. A
// miss rescores the whole dataset.
func economyScored(reg *Registry, ws []vec.Vector, k, n int) (scored int, keys []string) {
	c := reg.Get(k, nil)
	keys = make([]string, len(ws))
	for i, w := range ws {
		r, hit := c.Lookup(w)
		if !hit {
			scored += n
		}
		keys[i] = r.OrderKey()
	}
	return scored, keys
}

// TestPatchInsertEconomy: two identically warmed registries over IND
// n=20000 d=4 seed 7 (32 memoized vertices, k=10) take the same four
// single inserts, one through AdvanceInsert (splice repair) and one
// through Advance (drop). Re-warming must give the same rankings on both
// sides, and the patched side must score at most 192 options (advance
// splices plus re-warm misses; 128 when the gate was pinned) and at
// least 5x fewer than the drop side. A further insert at the origin,
// which no memoized top-k ranks, must patch nothing and drop nothing.
func TestPatchInsertEconomy(t *testing.T) {
	const (
		k          = 10
		vertices   = 32
		inserts    = 4
		maxScored  = 192
		ratioFloor = 5
	)
	if testing.Short() {
		t.Skip("re-warms two 20000-option registries")
	}
	d := 4
	base := dataset.Generate(dataset.Independent, 20000, d, 7).Pts
	wrng := rand.New(rand.NewSource(71))
	ws := make([]vec.Vector, vertices)
	for i := range ws {
		ws[i] = patchOracleVertex(wrng, d)
	}
	insSeed := rand.New(rand.NewSource(72)).Int63()

	// One row, named for the one-shard registry it ran on when the
	// registry could be sharded.
	t.Run("S1", func(t *testing.T) {
		sc0 := NewScorerAt(base, 1)
		regPatch := NewRegistry(sc0)
		regCold := NewRegistry(sc0)
		for _, reg := range []*Registry{regPatch, regCold} {
			c := reg.Get(k, nil)
			for _, w := range ws {
				c.Get(w)
			}
		}

		// Each examined entry scores the one inserted option, so the patch
		// side's advance work is PatchSummary.Entries per insert.
		pts := base
		patchScored := 0
		rng := rand.New(rand.NewSource(insSeed))
		for b := 0; b < inserts; b++ {
			p := vec.New(d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts = append(pts[:len(pts):len(pts)], p)
			scn := NewScorerAt(pts, uint64(2+b))
			slot := []int{len(pts) - 1}
			sum := regPatch.AdvanceInsert(scn, slot)
			if sum.Fallback {
				t.Fatal("patch advance fell back to drop")
			}
			patchScored += sum.Entries * len(slot)
			regCold.Advance(scn, slot)
		}
		rewarm, patchKeys := economyScored(regPatch, ws, k, len(pts))
		patchScored += rewarm
		coldScored, coldKeys := economyScored(regCold, ws, k, len(pts))
		for i := range patchKeys {
			if patchKeys[i] != coldKeys[i] {
				t.Fatalf("vertex %d: patched and recomputed rankings diverge", i)
			}
		}
		t.Logf("options scored to re-warm: patch %d, cold %d", patchScored, coldScored)
		if patchScored == 0 {
			t.Fatal("no memo entries exercised")
		}
		if patchScored > maxScored {
			t.Errorf("patch side scored %d options, limit %d", patchScored, maxScored)
		}
		if ratio := float64(coldScored) / float64(patchScored); ratio < ratioFloor {
			t.Errorf("scored ratio %.1f (cold %d / patch %d) below the %dx floor", ratio, coldScored, patchScored, ratioFloor)
		}

		evBefore := regPatch.Evictions()
		pts = append(pts[:len(pts):len(pts)], vec.New(d))
		sum := regPatch.AdvanceInsert(NewScorerAt(pts, 2+inserts), []int{len(pts) - 1})
		if sum.Entries == 0 {
			t.Error("untouched insert examined no entries")
		}
		if sum.Changed() {
			t.Error("untouched insert patched an entry")
		}
		drops := regPatch.Evictions() - evBefore
		if again, _ := economyScored(regPatch, ws, k, len(pts)); again != 0 {
			drops += again
		}
		if drops != 0 {
			t.Errorf("untouched insert dropped %d entries", drops)
		}
	})
}
