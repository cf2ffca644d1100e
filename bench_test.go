// Package toprr_test hosts the repository-level benchmarks: one
// testing.B benchmark per table and figure of the paper's evaluation
// (wrapping the drivers in internal/bench at a reduced scale so the full
// suite finishes in minutes), plus micro-benchmarks of the hot
// operations and ablation benchmarks that switch off one design choice
// at a time (the paper's lemmas, the k-switch, the top-k cache).
//
// For paper-scale numbers, run cmd/benchrunner with -scale 1 -queries 50.
package toprr_test

import (
	"math/rand"
	"testing"
	"time"

	"toprr/internal/bench"
	"toprr/internal/core"
	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/skyband"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// benchScale keeps every figure driver fast enough for testing.B while
// exercising identical code paths. The per-query budgets matter for the
// d-sweep benchmarks: d >= 10 instances are genuinely expensive (the
// paper reports ~10^3 s at d = 12) and are annotated as exceeded rather
// than run to completion here.
var benchScale = bench.Scale{
	N:          0.05,
	Queries:    1,
	MaxRegions: 100000,
	Timeout:    10 * time.Second,
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range e.Run(benchScale) {
			if len(t.Rows) == 0 {
				b.Fatalf("experiment %s produced an empty table", id)
			}
		}
	}
}

// ------------------------- one benchmark per paper table and figure

func BenchmarkFig7CaseStudy(b *testing.B)         { runExperiment(b, "fig7") }
func BenchmarkFig8Filters(b *testing.B)           { runExperiment(b, "fig8") }
func BenchmarkFig9aVaryK(b *testing.B)            { runExperiment(b, "fig9a") }
func BenchmarkFig9bVarySigma(b *testing.B)        { runExperiment(b, "fig9b") }
func BenchmarkFig9cVaryN(b *testing.B)            { runExperiment(b, "fig9c") }
func BenchmarkFig9dVaryD(b *testing.B)            { runExperiment(b, "fig9d") }
func BenchmarkFig10aDistVaryK(b *testing.B)       { runExperiment(b, "fig10a") }
func BenchmarkFig10bDistVarySigma(b *testing.B)   { runExperiment(b, "fig10b") }
func BenchmarkFig10cDistVaryN(b *testing.B)       { runExperiment(b, "fig10c") }
func BenchmarkFig10dDistVaryD(b *testing.B)       { runExperiment(b, "fig10d") }
func BenchmarkFig11aRealVaryK(b *testing.B)       { runExperiment(b, "fig11a") }
func BenchmarkFig11bRealVarySigma(b *testing.B)   { runExperiment(b, "fig11b") }
func BenchmarkTable6RealVsSynthetic(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7Elongation(b *testing.B)      { runExperiment(b, "table7") }
func BenchmarkFig12Lemma5(b *testing.B)           { runExperiment(b, "fig12") }
func BenchmarkFig13Lemma7(b *testing.B)           { runExperiment(b, "fig13") }
func BenchmarkFig14KSwitch(b *testing.B)          { runExperiment(b, "fig14") }

// ----------------------------------------- algorithm micro-benchmarks

// defaultInstance builds one default-parameter TopRR instance (scaled).
func defaultInstance() ([]vec.Vector, int, *geom.Polytope) {
	ds := dataset.Generate(dataset.Independent, 50000, 4, 7)
	rng := rand.New(rand.NewSource(42))
	wr := bench.RandomRegion(3, 0.01, 1, rng)
	return ds.Pts, 10, wr
}

func benchAlgorithm(b *testing.B, opt core.Options) {
	pts, k, wr := defaultInstance()
	prob := core.NewProblem(pts, k, wr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(prob, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePAC(b *testing.B)     { benchAlgorithm(b, core.Options{Alg: core.PAC}) }
func BenchmarkSolveTAS(b *testing.B)     { benchAlgorithm(b, core.Options{Alg: core.TAS}) }
func BenchmarkSolveTASStar(b *testing.B) { benchAlgorithm(b, core.Options{Alg: core.TASStar}) }

// Ablations: each TAS* optimization toggled off (the Section 6.5 study
// as micro-benchmarks).
func BenchmarkSolveTASStarNoLemma5(b *testing.B) {
	benchAlgorithm(b, core.Options{Alg: core.TASStar, DisableLemma5: true})
}
func BenchmarkSolveTASStarNoLemma7(b *testing.B) {
	benchAlgorithm(b, core.Options{Alg: core.TASStar, DisableLemma7: true})
}
func BenchmarkSolveTASStarNoKSwitch(b *testing.B) {
	benchAlgorithm(b, core.Options{Alg: core.TASStar, DisableKSwitch: true})
}

// Design-choice ablation: the per-vertex top-k cache, which is not one
// of the paper's lemmas but this implementation's own memoization.
// Splitting reuses parent vertices heavily, so pass-through mode shows
// what the memoization buys.
func BenchmarkSolveTASStarNoTopKCache(b *testing.B) {
	benchAlgorithm(b, core.Options{Alg: core.TASStar, DisableTopKCache: true})
}

// -------------------------------------------- substrate micro-benches

func BenchmarkTopKQuery(b *testing.B) {
	ds := dataset.Generate(dataset.Independent, 1000, 4, 7)
	s := topk.NewScorer(ds.Pts)
	w := vec.Of(0.3, 0.25, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(w, 10, nil)
	}
}

func BenchmarkRSkybandFilter(b *testing.B) {
	ds := dataset.Generate(dataset.Independent, 100000, 4, 7)
	rd := skyband.NewRDomBox(vec.Of(0.3, 0.25, 0.2), vec.Of(0.31, 0.26, 0.21))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skyband.RSkyband(ds.Pts, 10, rd)
	}
}

func BenchmarkKSkybandFilter(b *testing.B) {
	ds := dataset.Generate(dataset.Independent, 20000, 4, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skyband.KSkyband(ds.Pts, 10)
	}
}

func BenchmarkPolytopeSplit(b *testing.B) {
	box := geom.NewBox(vec.New(5), vec.Of(1, 1, 1, 1, 1))
	h := geom.NewHalfspace(vec.Of(1, -1, 0.5, -0.5, 0.25), 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box.Split(h)
	}
}

func BenchmarkImpactClipOR(b *testing.B) {
	// Assembling oR from a batch of impact halfspaces: the Theorem 1
	// step, including the redundancy fast path.
	rng := rand.New(rand.NewSource(3))
	hs := make([]geom.Halfspace, 200)
	for i := range hs {
		a := vec.Of(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		hs[i] = geom.NewHalfspace(a, a.Sum()*0.55)
	}
	lo, hi := vec.New(4), vec.Of(1, 1, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.NewBox(lo, hi)
		for _, h := range hs {
			p = p.Clip(h)
			if p.IsEmpty() {
				b.Fatal("unexpected empty oR")
			}
		}
	}
}

// assembleInstance builds a solved mid-size instance whose Vall feeds
// the assemble benchmarks (mirrors the alloc experiment's workload).
func assembleInstance(b *testing.B) (*topk.Scorer, []core.ImpactVertex) {
	b.Helper()
	ds := dataset.Generate(dataset.Independent, 2000, 4, 7)
	rng := rand.New(rand.NewSource(11))
	wr := bench.RandomRegion(3, 0.05, 1, rng)
	prob := core.NewProblem(ds.Pts, 10, wr)
	res, err := core.Solve(prob, core.Options{Alg: core.TASStar, Seed: 5})
	if err != nil {
		b.Fatalf("instance solve: %v", err)
	}
	return prob.Scorer, res.Vall
}

func BenchmarkAssembleBuffered(b *testing.B) {
	scorer, vall := assembleInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := core.ClipAssembler{}.Assemble(scorer, vall, 5000)
		if len(out.Constraints) == 0 {
			b.Fatal("empty constraints")
		}
	}
}

func BenchmarkAssembleStreaming(b *testing.B) {
	scorer, vall := assembleInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.ClipAssembler{}.NewStream(scorer, 5000)
		for _, iv := range vall {
			st.Push(iv)
		}
		out := st.Finish()
		if len(out.Constraints) == 0 {
			b.Fatal("empty constraints")
		}
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.Correlated, dataset.Anticorrelated} {
		b.Run(dist.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dataset.Generate(dist, 10000, 4, int64(i))
			}
		})
	}
}
