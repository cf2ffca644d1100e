package geom

// Allocation gates for the clip hot path. These are the CI-enforced
// invariants docs/PERFORMANCE.md documents: redundant clips inside a
// Fold allocate nothing, and effective clips allocate only the handful
// of result headers (the vertex storage itself comes from the arenas).

import (
	"math/rand"
	"runtime"
	"testing"

	"toprr/internal/race"
	"toprr/internal/vec"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("alloc counts are inflated under -race")
	}
}

// allocsAndBytesPerRun reports testing.AllocsPerRun's figure for f next
// to the mean bytes allocated per call, measured the same way: one
// warm-up call, then the TotalAlloc delta over runs calls, at
// GOMAXPROCS(1).
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestAllocsRedundantFoldClip(t *testing.T) {
	skipUnderRace(t)
	d := 4
	f := NewFold(NewBox(vec.New(d), vec.Of(1, 1, 1, 1)))
	defer f.Release()
	redundant := NewHalfspace(vec.Of(1, 0, 0, 0), -5)
	f.Clip(redundant) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		f.Clip(redundant)
	})
	if allocs != 0 {
		t.Fatalf("redundant Fold.Clip allocates %.1f per run, want 0", allocs)
	}
}

func TestAllocsEffectiveFoldClipBounded(t *testing.T) {
	skipUnderRace(t)
	d := 4
	hs := randomHalfspaces(d, 60, 21)
	// Warm arenas and scratch to their steady-state sizes, then measure
	// a full fold: the per-clip budget covers only the result headers
	// (HS slice, vertex slice, polytope struct, bits headers), not the
	// vertex storage, which the arenas recycle.
	lo, hi := vec.New(d), vec.Of(1, 1, 1, 1)
	run := func() int {
		f := NewFold(NewBox(lo, hi))
		n := 0
		for _, h := range hs {
			if f.Clip(h) {
				n++
			}
		}
		f.Release()
		return n
	}
	effective := run()
	if effective < 5 {
		t.Fatalf("degenerate workload: only %d effective clips", effective)
	}
	allocs := testing.AllocsPerRun(20, func() { run() })
	// NewBox itself allocates ~4 per halfspace + corners; give the fold
	// 8 header allocations per effective clip on top.
	budget := float64(60 + 8*effective)
	if allocs > budget {
		t.Fatalf("fold of %d clips (%d effective) allocates %.0f per run, budget %.0f",
			len(hs), effective, allocs, budget)
	}
}

// TestAllocsImpactClipOR bounds a full oR assembly by successive
// Polytope.Clip on the pinned batch of 200 impact-like halfspaces that
// BenchmarkImpactClipOR measures. The bounds are 1.2x the counts
// measured when the gate was pinned (4033 allocs, 308,117 bytes).
func TestAllocsImpactClipOR(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(3))
	hs := make([]Halfspace, 200)
	for i := range hs {
		a := vec.Of(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		hs[i] = NewHalfspace(a, a.Sum()*0.55)
	}
	lo, hi := vec.New(4), vec.Of(1, 1, 1, 1)
	allocs, bytes := allocsAndBytesPerRun(20, func() {
		p := NewBox(lo, hi)
		for _, h := range hs {
			if p = p.Clip(h); p.IsEmpty() {
				t.Fatal("unexpected empty oR")
			}
		}
	})
	const maxAllocs, maxBytes = 4839, 369_740
	t.Logf("%.0f allocs, %.0f bytes per run", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("impact clip oR: %.0f allocs, %.0f bytes per run; limits %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestAllocsPolytopeSplit bounds one split of the 5-d unit box by a
// pinned oblique hyperplane, the operation BenchmarkPolytopeSplit
// measures. The bounds are the larger of 1.2x and +4096 bytes over the
// counts measured when the gate was pinned (123 allocs, 7536 bytes).
func TestAllocsPolytopeSplit(t *testing.T) {
	skipUnderRace(t)
	box := NewBox(vec.New(5), vec.Of(1, 1, 1, 1, 1))
	h := NewHalfspace(vec.Of(1, -1, 0.5, -0.5, 0.25), 0.1)
	allocs, bytes := allocsAndBytesPerRun(100, func() { box.Split(h) })
	const maxAllocs, maxBytes = 147, 11_632
	t.Logf("%.0f allocs, %.0f bytes per run", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("polytope split: %.0f allocs, %.0f bytes per run; limits %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
