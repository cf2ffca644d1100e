package toprr_test

import (
	"context"
	"math/rand"
	"testing"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// dominatedMarket builds a skewed dataset: a small elite well inside
// [0.7,1]^d above a large mass capped at 0.6 per coordinate. The elite
// fits the sketches' monitored budget and r-dominates everything the
// thresholds summarize, so the prefilter gate has room to certify.
func dominatedMarket(rng *rand.Rand, n, d int) []vec.Vector {
	const elite = 32
	pts := make([]vec.Vector, 0, n)
	for i := 0; i < n-elite; i++ {
		p := vec.New(d)
		for j := range p {
			p[j] = rng.Float64() * 0.6
		}
		pts = append(pts, p)
	}
	for i := 0; i < elite; i++ {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.7 + rng.Float64()*0.3
		}
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// dominatedPoint draws an insert from the same skewed distribution
// (mostly mass, occasionally elite).
func dominatedPoint(rng *rand.Rand, d int) vec.Vector {
	p := vec.New(d)
	if rng.Intn(10) == 0 {
		for j := range p {
			p[j] = 0.7 + rng.Float64()*0.3
		}
		return p
	}
	for j := range p {
		p[j] = rng.Float64() * 0.6
	}
	return p
}

// requireIdentical fails unless two results are bit-identical:
// constraints, region fingerprint, and the defining vertex set.
func requireIdentical(t *testing.T, tag string, got, want *toprr.Result) {
	t.Helper()
	if toprr.RegionFingerprint(got) != toprr.RegionFingerprint(want) {
		t.Fatalf("%s: region fingerprints differ", tag)
	}
	if len(got.ORConstraints) != len(want.ORConstraints) {
		t.Fatalf("%s: %d constraints, want %d", tag, len(got.ORConstraints), len(want.ORConstraints))
	}
	for i := range got.ORConstraints {
		g, w := got.ORConstraints[i], want.ORConstraints[i]
		if g.B != w.B || !g.A.Equal(w.A, 0) {
			t.Fatalf("%s: constraint %d differs: %v|%v vs %v|%v", tag, i, g.A, g.B, w.A, w.B)
		}
	}
	if len(got.Vall) != len(want.Vall) {
		t.Fatalf("%s: |Vall| = %d, want %d", tag, len(got.Vall), len(want.Vall))
	}
	for i := range got.Vall {
		g, w := got.Vall[i], want.Vall[i]
		if g.KthScore != w.KthScore || !g.W.Equal(w.W, 0) {
			t.Fatalf("%s: Vall[%d] differs: %v@%v vs %v@%v", tag, i, g.W, g.KthScore, w.W, w.KthScore)
		}
	}
}

// TestSketchGateBitIdentity: a gated solve must be bit-identical to an
// ungated one — same constraints, fingerprint and Vall — on four seeded
// markets (the seeds the rows over shard counts 1, 2, 3 and 8 used),
// with mutations interleaved between rounds. This is the
// acceptance property of the sketch gate: it may only skip work whose
// outcome its certificate pins.
func TestSketchGateBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{101, 102, 103, 108} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			d := 4
			pts := dominatedMarket(rng, 600, d)
			engine := toprr.NewEngine(pts)

			ungated := toprr.Options{Alg: toprr.TASStar, DisableSketchGate: true}
			for round := 0; round < 4; round++ {
				snap := engine.Snapshot()
				for qi := 0; qi < 3; qi++ {
					q := randomQuery(rng, d, 2+rng.Intn(4))
					got, err := engine.SolveAt(ctx, snap, q)
					if err != nil {
						t.Fatal(err)
					}
					q.Options = &ungated
					want, err := engine.SolveAt(ctx, snap, q)
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, "gated vs ungated", got, want)
					if want.Stats.SketchGated {
						t.Fatal("ungated solve reports a sketch certificate")
					}
				}
				// Mutate between rounds: a pure-insert batch on even rounds
				// (patch advance), a reshape batch on odd ones (rebuild
				// advance).
				var ops []toprr.Op
				if round%2 == 0 {
					for i := 0; i < 5; i++ {
						ops = append(ops, toprr.Insert(dominatedPoint(rng, d)))
					}
				} else {
					n := engine.Snapshot().Scorer.Len()
					ops = append(ops,
						toprr.Update(rng.Intn(n), dominatedPoint(rng, d)),
						toprr.Delete(rng.Intn(n)),
						toprr.Insert(dominatedPoint(rng, d)),
					)
				}
				if _, err := engine.Apply(ctx, ops); err != nil {
					t.Fatal(err)
				}
			}
			cs := engine.CacheStats()
			if cs.SketchGateHits == 0 {
				t.Error("gate never certified on dominated-heavy data")
			}
			if cs.SketchCertifiedSkips == 0 {
				t.Error("gate certified without excusing any option")
			}
		})
	}
}

// TestSketchGateStatsSurface: a gated solve reports the certificate in
// its Stats, and the skip count matches dataset minus candidates.
func TestSketchGateStatsSurface(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	pts := dominatedMarket(rng, 600, 4)
	engine := toprr.NewEngine(pts)

	res, err := engine.Solve(ctx, randomQuery(rng, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.SketchGated {
		t.Fatal("solve on dominated-heavy data was not gated")
	}
	if res.Stats.SketchSkips <= 0 {
		t.Fatalf("SketchSkips = %d, want > 0", res.Stats.SketchSkips)
	}
	if res.Stats.SketchSkips != 600-64 {
		t.Fatalf("SketchSkips = %d, want %d (dataset minus monitored budget)", res.Stats.SketchSkips, 600-64)
	}
}
