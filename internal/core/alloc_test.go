package core

// CI-enforced allocation invariants for the solve hot path (see
// docs/PERFORMANCE.md): streaming impact dedup allocates nothing once
// its table reaches steady state, and oR assembly stays within pinned
// allocation and byte bounds.

import (
	"runtime"
	"testing"

	"toprr/internal/dataset"
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

func TestAllocsStreamPushDuplicate(t *testing.T) {
	skipUnderRace(t)
	scorer, vall := streamTestInstance(t)
	st := ClipAssembler{}.NewStream(scorer, 5000)
	for _, iv := range vall {
		st.Push(iv)
	}
	// Re-pushing the same vertices hits the dedup fast path: hash, probe,
	// compare — no clone, no key string, no growth.
	allocs := testing.AllocsPerRun(50, func() {
		for _, iv := range vall {
			st.Push(iv)
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate stream pushes allocate %.1f per run, want 0", allocs)
	}
}

// TestAllocsAssemble bounds oR assembly from a solved instance's Vall
// (IND n=2000 d=4 seed 7, k=10, TAS* seed 5, a pinned 0.05-side box),
// through the buffered Assemble and through a stream fed vertex by
// vertex. The bounds are 1.2x the counts measured when the gate was
// pinned (828 allocs, 482,087 bytes).
func TestAllocsAssemble(t *testing.T) {
	skipUnderRace(t)
	ds := dataset.Generate(dataset.Independent, 2000, 4, 7)
	wr := PrefBox(vec.Of(0.29111987104385073, 0.06659918732501753, 0.2233739864946201),
		vec.Of(0.3411198710438507, 0.11659918732501753, 0.2733739864946201))
	prob := NewProblem(ds.Pts, 10, wr)
	res, err := Solve(prob, Options{Alg: TASStar, Seed: 5})
	if err != nil {
		t.Fatalf("instance solve: %v", err)
	}
	scorer, vall := prob.Scorer, res.Vall
	const maxAllocs, maxBytes = 993, 578_504
	for _, tc := range []struct {
		name     string
		assemble func() AssembleOutput
	}{
		{"buffered", func() AssembleOutput { return ClipAssembler{}.Assemble(scorer, vall, 5000) }},
		{"streaming", func() AssembleOutput {
			st := ClipAssembler{}.NewStream(scorer, 5000)
			for _, iv := range vall {
				st.Push(iv)
			}
			return st.Finish()
		}},
	} {
		allocs, bytes := allocsAndBytesPerRun(10, func() {
			if out := tc.assemble(); len(out.Constraints) == 0 {
				t.Fatal("empty constraints")
			}
		})
		t.Logf("%s: %.0f allocs, %.0f bytes per run", tc.name, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s assemble: %.0f allocs, %.0f bytes per run; limits %d and %d", tc.name, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
