package topk

import (
	"math/rand"
	"testing"

	"toprr/internal/vec"
)

func regPts() []vec.Vector {
	return []vec.Vector{
		vec.Of(0.1, 0.9),
		vec.Of(0.5, 0.5),
		vec.Of(0.9, 0.1),
		vec.Of(0.3, 0.6),
	}
}

// TestRegistryGetFor: interned caches are handed out only to the
// registry's current generation; other scorers fall back to nil.
func TestRegistryGetFor(t *testing.T) {
	sc := NewScorerAt(regPts(), 1)
	r := NewRegistry(sc)
	c := r.GetFor(sc, 2, []int{0, 1, 2})
	if c == nil {
		t.Fatal("GetFor with the registry's own scorer returned nil")
	}
	if r.GetFor(sc, 2, []int{2, 1, 0}) != c {
		t.Error("permuted active set should share the interned cache")
	}
	other := NewScorerAt(regPts(), 2)
	if r.GetFor(other, 2, []int{0, 1, 2}) != nil {
		t.Error("GetFor with a foreign scorer must return nil")
	}
}

// TestRegistryAdvance: advancing to a new generation keeps the memoized
// results of configurations untouched by the mutation, drops
// whole-dataset and dirty-touching configurations, and leaves the old
// generation's Cache objects intact for pinned readers.
func TestRegistryAdvance(t *testing.T) {
	sc1 := NewScorerAt(regPts(), 1)
	r := NewRegistry(sc1)

	clean := r.GetFor(sc1, 2, []int{0, 1, 2}) // avoids slot 3
	dirty := r.GetFor(sc1, 2, []int{1, 3})    // touches slot 3
	whole := r.GetFor(sc1, 2, nil)            // all options
	w := vec.Of(0.4)
	clean.Get(w)
	dirty.Get(w)
	whole.Get(w)
	if r.Len() != 3 {
		t.Fatalf("interned %d configs, want 3", r.Len())
	}

	// Generation 2: slot 3 updated.
	pts := regPts()
	pts[3] = vec.Of(0.8, 0.8)
	sc2 := NewScorerAt(pts, 2)
	r.Advance(sc2, []int{3})

	if r.Len() != 1 {
		t.Fatalf("after advance %d configs survive, want 1", r.Len())
	}
	if r.Scorer() != sc2 {
		t.Error("registry did not rebind to the new scorer")
	}
	survivor := r.GetFor(sc2, 2, []int{0, 1, 2})
	if survivor == nil {
		t.Fatal("surviving config not served to the new generation")
	}
	if survivor.Len() != 1 {
		t.Errorf("survivor lost its memoized results: len=%d", survivor.Len())
	}
	if _, hit := survivor.Lookup(w); !hit {
		t.Error("carried-forward result should hit")
	}
	// The survivor is carried by pointer (its active options are
	// bit-identical across generations, so old pinned solves and new
	// solves compute the same results over it), not copied.
	if survivor != clean {
		t.Error("untouched config should be carried forward by pointer")
	}
	if clean.Scorer() != sc2 {
		t.Error("carried cache was not rebound to the new scorer")
	}
	if r.Evictions() < 2 {
		t.Errorf("evictions = %d, want >= 2 (whole-dataset + dirty configs)", r.Evictions())
	}

	// Hit/miss totals stay monotone across the advance.
	hits, misses := r.Stats()
	if hits+misses < 3 {
		t.Errorf("stats lost retired counters: hits=%d misses=%d", hits, misses)
	}
}

// TestRegistryAdvanceInsertKeepsExplicitConfigs: an insert dirties only
// the appended slot, so every explicit-active-set configuration
// survives.
func TestRegistryAdvanceInsertKeepsExplicitConfigs(t *testing.T) {
	sc1 := NewScorerAt(regPts(), 1)
	r := NewRegistry(sc1)
	c := r.GetFor(sc1, 2, []int{0, 1, 2, 3})
	c.Get(vec.Of(0.4))

	pts := append(regPts(), vec.Of(0.2, 0.2))
	sc2 := NewScorerAt(pts, 2)
	r.Advance(sc2, []int{4})

	if r.Len() != 1 {
		t.Fatalf("explicit config dropped on insert: len=%d", r.Len())
	}
	if got := r.GetFor(sc2, 2, []int{0, 1, 2, 3}); got == nil || got.Len() != 1 {
		t.Error("insert should carry the explicit config's results forward")
	}
}

// TestRegistryLimits: SetLimits caps interned configs (refusals counted
// as evictions) and per-cache entries.
func TestRegistryLimits(t *testing.T) {
	sc := NewScorerAt(regPts(), 1)
	r := NewRegistry(sc)
	r.SetLimits(1, 1)

	a := r.Get(1, []int{0, 1})
	b := r.Get(2, []int{0, 1, 2}) // over the config cap: unregistered
	if r.Len() != 1 {
		t.Fatalf("config cap not enforced: len=%d", r.Len())
	}
	if r.Get(2, []int{0, 1, 2}) == b {
		t.Error("over-cap cache should not be interned")
	}
	if r.Evictions() == 0 {
		t.Error("config-cap refusals should count as evictions")
	}

	// Entry cap: second distinct vertex is computed but not memoized.
	a.Get(vec.Of(0.3))
	a.Get(vec.Of(0.6))
	if a.Len() != 1 {
		t.Errorf("entry cap not enforced: len=%d", a.Len())
	}
	if a.Evictions() != 1 {
		t.Errorf("entry-cap refusal not counted: %d", a.Evictions())
	}
}

// TestRegistryDropsTruncatedConfigs: deleting the last option truncates
// its slot away, so an explicit configuration referencing that slot
// must be dropped.
func TestRegistryDropsTruncatedConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPts(rng, 10, 3)
	sc1 := NewScorerAt(pts, 1)
	reg := NewRegistry(sc1)

	last := len(pts) - 1
	reg.Get(2, []int{0, 3, last}).Get(vec.Of(0.3, 0.3))

	pts2 := append([]vec.Vector(nil), pts[:last]...)
	sc2 := NewScorerAt(pts2, 2)
	reg.Advance(sc2, []int{last})
	if reg.Len() != 0 {
		t.Fatalf("config referencing a truncated slot survived (configs=%d)", reg.Len())
	}
}
