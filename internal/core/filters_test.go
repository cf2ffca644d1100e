package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"toprr/internal/skyband"
)

// TestUTKFilterCoversSampledTopK: every option observed in a top-k
// result at a sampled preference of wR must be in the UTK filter's
// output (the filter claims to be exact, so missing one would be a
// soundness bug), and the output must never exceed the r-skyband's.
func TestUTKFilterCoversSampledTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for iter := 0; iter < 5; iter++ {
		d := 2 + iter%3
		prob := randomProblem(rng, 100, d, 2+rng.Intn(5))
		out, err := UTKFilter(datasetPoints(prob), prob.K, prob.WR)
		if err != nil {
			t.Fatal(err)
		}
		inOut := make(map[int]bool, len(out))
		for i, idx := range out {
			inOut[idx] = true
			if i > 0 && out[i] <= out[i-1] {
				t.Fatalf("iter %d: output not strictly sorted: %v", iter, out)
			}
		}
		// Sampled preferences (and the extreme vertices of wR).
		ws := prob.WR.VertexPoints()
		for s := 0; s < 200; s++ {
			ws = append(ws, prob.WR.SamplePoint(rng))
		}
		for _, w := range ws {
			for _, idx := range prob.Scorer.TopK(w, prob.K, nil).Ordered {
				if !inOut[idx] {
					t.Fatalf("iter %d: option %d is top-%d at %v but missing from UTK filter %v",
						iter, idx, prob.K, w, out)
				}
			}
		}
		// Minimality relative to the r-skyband (the UTK filter must be
		// at least as tight).
		rd := skyband.NewRDomVerts(prob.WR.VertexPoints())
		sky := skyband.RSkyband(datasetPoints(prob), prob.K, rd)
		if len(out) > len(sky) {
			t.Fatalf("iter %d: |UTK| = %d > |r-skyband| = %d", iter, len(out), len(sky))
		}
	}
}

// TestUTKFilterDeterministic: two runs agree element-wise.
func TestUTKFilterDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	prob := randomProblem(rng, 120, 3, 4)
	a, err := UTKFilter(datasetPoints(prob), prob.K, prob.WR)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UTKFilter(datasetPoints(prob), prob.K, prob.WR)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic output at %d: %v vs %v", i, a, b)
		}
	}
}

// TestUTKFilterContextCancelled: the filter honors cancellation.
func TestUTKFilterContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	prob := randomProblem(rng, 100, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := UTKFilterContext(ctx, datasetPoints(prob), prob.K, prob.WR); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestUTKFilterNoLargerThanSkyband: the UTK filter's exact candidate
// set is never larger than the r-skyband |D'| a solve reports.
func TestUTKFilterNoLargerThanSkyband(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 3; iter++ {
		d := 2 + iter
		prob := randomProblem(rng, 100, d, 3)
		base, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		utk, err := UTKFilterContext(context.Background(), datasetPoints(prob), prob.K, prob.WR)
		if err != nil {
			t.Fatal(err)
		}
		if len(utk) > base.Stats.FilteredOptions {
			t.Errorf("iter %d: UTK |D'| = %d exceeds r-skyband |D'| = %d",
				iter, len(utk), base.Stats.FilteredOptions)
		}
	}
}

// TestFilterSizes: the Lemma 5 root reduction can only shrink the
// candidate count, and both sizes stay within [k, n].
func TestFilterSizesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for iter := 0; iter < 6; iter++ {
		prob := randomProblem(rng, 150, 2+iter%3, 2+rng.Intn(6))
		sky, lem := FilterSizes(prob)
		if lem > sky {
			t.Fatalf("iter %d: Lemma 5 grew the candidate set: %d -> %d", iter, sky, lem)
		}
		if sky < prob.K || sky > prob.Scorer.Len() {
			t.Fatalf("iter %d: r-skyband size %d out of range [k=%d, n=%d]",
				iter, sky, prob.K, prob.Scorer.Len())
		}
		if lem < 0 {
			t.Fatalf("iter %d: negative Lemma 5 size %d", iter, lem)
		}
	}
}
