package core

import (
	"math/rand"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// streamTestInstance solves a mid-size problem and returns its scorer
// and Vall, the raw material for assemble-stage equivalence tests.
func streamTestInstance(t *testing.T) (*topk.Scorer, []ImpactVertex) {
	t.Helper()
	ds := dataset.Generate(dataset.Independent, 1500, 4, 7)
	wr := testRegion(3, 0.06, 9)
	prob := NewProblem(ds.Pts, 8, wr)
	res, err := Solve(prob, Options{Alg: TASStar, Seed: 5})
	if err != nil {
		t.Fatalf("instance solve: %v", err)
	}
	if len(res.Vall) < 10 {
		t.Fatalf("degenerate instance: |Vall| = %d", len(res.Vall))
	}
	return prob.Scorer, res.Vall
}

// testRegion builds a small random box region inside the simplex.
func testRegion(m int, side float64, seed int64) *geom.Polytope {
	rng := rand.New(rand.NewSource(seed))
	lo := make(vec.Vector, m)
	hi := make(vec.Vector, m)
	for j := range lo {
		lo[j] = 0.1 + 0.5*rng.Float64()/float64(m)
		hi[j] = lo[j] + side
	}
	return PrefBox(lo, hi)
}

// assertSameOutput requires bit-identical assemble outputs: the same
// constraint list (exact float equality) and the same explicit
// geometry.
func assertSameOutput(t *testing.T, want, got AssembleOutput, label string) {
	t.Helper()
	if len(want.Constraints) != len(got.Constraints) {
		t.Fatalf("%s: %d constraints, want %d", label, len(got.Constraints), len(want.Constraints))
	}
	for i := range want.Constraints {
		a, b := want.Constraints[i], got.Constraints[i]
		if a.B != b.B || !a.A.Equal(b.A, 0) {
			t.Fatalf("%s: constraint %d differs: %v vs %v", label, i, b, a)
		}
	}
	if (want.OR == nil) != (got.OR == nil) {
		t.Fatalf("%s: OR presence differs: %v vs %v", label, got.OR != nil, want.OR != nil)
	}
	if want.OR != nil && got.OR.CanonicalKey() != want.OR.CanonicalKey() {
		t.Fatalf("%s: OR geometry differs", label)
	}
	if want.Clips != got.Clips {
		t.Fatalf("%s: clips = %d, want %d", label, got.Clips, want.Clips)
	}
}

// TestStreamingMatchesBufferedAnyOrder: a streaming assembly must be
// bit-identical to the buffered Assemble call over the same vertex set,
// regardless of the order vertices arrive in — dedup and the
// deepest-cut sort are arrival-order independent by construction.
func TestStreamingMatchesBufferedAnyOrder(t *testing.T) {
	scorer, vall := streamTestInstance(t)
	asm := ClipAssembler{}
	want := asm.Assemble(scorer, vall, 5000)
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]ImpactVertex(nil), vall...)
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		st := asm.NewStream(scorer, 5000)
		for _, iv := range shuffled {
			st.Push(iv)
		}
		assertSameOutput(t, want, st.Finish(), asm.Name())
	}
}

// TestStreamingDuplicateRepresentative: when two distinct vertices
// quantize to the same impact halfspace, the kept representative must
// not depend on arrival order (the buffered path keeps the
// lexicographically smallest vertex's halfspace; streaming must too).
func TestStreamingDuplicateRepresentative(t *testing.T) {
	scorer, vall := streamTestInstance(t)
	// Perturb a copy of the first vertex far below the dedup quantum:
	// same quantized halfspace, different raw bits.
	twin := vall[0]
	w := twin.W.Clone()
	w[0] += 1e-13
	twin.W = w
	twin.KthScore += 1e-13
	withTwin := append([]ImpactVertex{twin}, vall...)

	want := ClipAssembler{}.Assemble(scorer, vall, 5000)
	forward := ClipAssembler{}.Assemble(scorer, withTwin, 5000)
	// Reverse order pushes the twin last.
	st := ClipAssembler{}.NewStream(scorer, 5000)
	for i := len(withTwin) - 1; i >= 0; i-- {
		st.Push(withTwin[i])
	}
	backward := st.Finish()
	assertSameOutput(t, forward, backward, "twin-order")
	// The twin is raw-lexicographically larger than the original, so the
	// original's halfspace must be the representative either way and the
	// output must match the twin-free assembly bit for bit.
	assertSameOutput(t, want, forward, "twin-vs-clean")
}

// TestSolveStreamsByDefault: the solve's streamed assembly is
// bit-identical to a buffered Assemble over its own Vall.
func TestSolveStreamsByDefault(t *testing.T) {
	ds := dataset.Generate(dataset.Independent, 1200, 4, 3)
	wr := testRegion(3, 0.06, 4)
	prob := NewProblem(ds.Pts, 6, wr)

	def, err := Solve(prob, Options{Alg: TASStar, Seed: 2})
	if err != nil {
		t.Fatalf("default solve: %v", err)
	}
	if def.Stats.UniqueImpacts != len(def.ORConstraints)-2*prob.Scorer.Dim() {
		t.Fatalf("UniqueImpacts = %d, want %d",
			def.Stats.UniqueImpacts, len(def.ORConstraints)-2*prob.Scorer.Dim())
	}

	assertSameOutput(t,
		ClipAssembler{}.Assemble(prob.Scorer, def.Vall, 5000),
		AssembleOutput{Constraints: def.ORConstraints, OR: def.OR, Clips: def.Stats.ImpactClips},
		"solve")
}

// TestDedupImpactMatchesStream pins the buffered dedup helper to the
// streaming set: same constraints from either entry point.
func TestDedupImpactMatchesStream(t *testing.T) {
	scorer, vall := streamTestInstance(t)
	want := dedupImpact(scorer, vall)
	set := impactSet{scorer: scorer}
	for i := len(vall) - 1; i >= 0; i-- { // reversed arrival
		set.add(vall[i])
	}
	got := set.sorted()
	if len(want) != len(got) {
		t.Fatalf("%d halfspaces, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].B != got[i].B || !want[i].A.Equal(got[i].A, 0) {
			t.Fatalf("halfspace %d differs", i)
		}
	}
}
