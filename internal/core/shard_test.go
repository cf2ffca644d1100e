package core

import (
	"math/rand"
	"testing"

	"toprr/internal/vec"
)

// TestShardedSolveMatchesUnsharded: with one worker and a fixed seed
// the sharded evaluation plane returns bit-identical top-k results, so
// the whole recursion — splits, Vall, constraint set — must match the
// unsharded solve exactly.
func TestShardedSolveMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 6; iter++ {
		d := 2 + iter%3
		prob := randomProblem(rng, 120, d, 2+rng.Intn(5))
		base, err := Solve(prob, Options{Alg: TASStar, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 8} {
			res, err := Solve(prob, Options{Alg: TASStar, Seed: 9, Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if len(res.Vall) != len(base.Vall) {
				t.Fatalf("iter %d shards=%d: |Vall| %d != %d", iter, shards, len(res.Vall), len(base.Vall))
			}
			for i := range res.Vall {
				if !res.Vall[i].W.Equal(base.Vall[i].W, 1e-12) || res.Vall[i].KthScore != base.Vall[i].KthScore {
					t.Fatalf("iter %d shards=%d: Vall[%d] differs", iter, shards, i)
				}
			}
			if len(res.ORConstraints) != len(base.ORConstraints) {
				t.Fatalf("iter %d shards=%d: constraint count %d != %d", iter, shards, len(res.ORConstraints), len(base.ORConstraints))
			}
			if res.Stats.Shards != shards || len(res.Stats.ShardStats) != shards {
				t.Fatalf("iter %d shards=%d: shard stats missing: %+v", iter, shards, res.Stats.Shards)
			}
			totalOpts, partials := 0, 0
			for _, ss := range res.Stats.ShardStats {
				totalOpts += ss.Options
				partials += ss.Partials
			}
			if totalOpts != res.Stats.FilteredOptions {
				t.Errorf("iter %d shards=%d: shard populations sum to %d, want |D'|=%d", iter, shards, totalOpts, res.Stats.FilteredOptions)
			}
			if partials == 0 {
				t.Errorf("iter %d shards=%d: no partial computations attributed", iter, shards)
			}
		}
	}
}

// TestShardedSolveParallelWorkers: sharded + parallel workers computes
// the same region (membership-compared; split choices may differ under
// scheduling nondeterminism).
func TestShardedSolveParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for iter := 0; iter < 4; iter++ {
		d := 2 + iter%3
		prob := randomProblem(rng, 140, d, 2+rng.Intn(5))
		base, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(prob, Options{Alg: TASStar, Shards: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 400; probe++ {
			o := vec.New(d)
			for j := range o {
				o[j] = rng.Float64()
			}
			if base.IsTopRanking(o) != res.IsTopRanking(o) {
				t.Fatalf("iter %d: sharded parallel solve differs at %v", iter, o)
			}
		}
	}
}

// TestParallelClipAssembler: the sharded merge stage — per-shard chunks
// clipped concurrently, then intersected — produces exactly the
// sequential assembler's constraint list and region.
func TestParallelClipAssembler(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 5; iter++ {
		d := 2 + iter%3
		prob := randomProblem(rng, 120, d, 2+rng.Intn(5))
		res, err := Solve(prob, Options{Alg: TASStar})
		if err != nil {
			t.Fatal(err)
		}
		seq := ClipAssembler{}.Assemble(prob.Scorer, res.Vall, 5000)
		for _, shards := range []int{1, 2, 4, 8} {
			par := ParallelClipAssembler{Shards: shards}.Assemble(prob.Scorer, res.Vall, 5000)
			if len(par.Constraints) != len(seq.Constraints) {
				t.Fatalf("shards=%d: %d constraints, want %d", shards, len(par.Constraints), len(seq.Constraints))
			}
			for i := range par.Constraints {
				if !par.Constraints[i].A.Equal(seq.Constraints[i].A, 0) || par.Constraints[i].B != seq.Constraints[i].B {
					t.Fatalf("shards=%d: constraint %d differs", shards, i)
				}
			}
			if (par.OR == nil) != (seq.OR == nil) {
				t.Fatalf("shards=%d: geometry presence differs", shards)
			}
			if par.OR == nil {
				continue
			}
			// Same geometric region: cross-check membership on samples
			// biased toward the boundary.
			for probe := 0; probe < 300; probe++ {
				o := vec.New(d)
				for j := range o {
					o[j] = rng.Float64()
				}
				in := true
				for _, h := range seq.Constraints {
					if h.Eval(o) < 0 {
						in = false
						break
					}
				}
				pin := true
				for _, h := range par.Constraints {
					if h.Eval(o) < 0 {
						pin = false
						break
					}
				}
				if in != pin {
					t.Fatalf("shards=%d: membership differs at %v", shards, o)
				}
			}
			if len(par.ShardClips) == 0 {
				t.Fatalf("shards=%d: no per-shard clip attribution", shards)
			}
		}
	}
}
