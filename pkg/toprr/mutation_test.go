package toprr_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// wideQuery draws a query whose preference region is wide enough that
// the solver must split it, interning split hyperplanes along the way.
func wideQuery(rng *rand.Rand, d, k int) toprr.Query {
	m := d - 1
	lo, hi := vec.New(m), vec.New(m)
	for j := 0; j < m; j++ {
		lo[j] = 0.05 + 0.2*rng.Float64()
		hi[j] = lo[j] + 0.25/float64(m)
	}
	return toprr.Query{K: k, WR: toprr.PrefBox(lo, hi)}
}

// randomPoint draws one option in [0,1]^d.
func randomPoint(rng *rand.Rand, d int) vec.Vector {
	p := vec.New(d)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

// TestEngineMutationOracle: after any sequence of Insert/Delete/Update
// ops, the engine's answers must equal a fresh package-level Solve over
// an independently maintained copy of the point set (mirroring the
// store's swap-with-last delete semantics).
func TestEngineMutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	pts := randomMarket(rng, 100, 3)
	engine := toprr.NewEngine(pts)
	mirror := append([]vec.Vector(nil), pts...)

	// Warm the caches so mutations exercise incremental invalidation,
	// not just empty-cache rebuilds.
	for i := 0; i < 3; i++ {
		if _, err := engine.Solve(ctx, randomQuery(rng, 3, 2+i)); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < 6; step++ {
		var ops []toprr.Op
		switch step % 3 {
		case 0: // vendor ships a product
			p := randomPoint(rng, 3)
			ops = []toprr.Op{toprr.Insert(p)}
			mirror = append(mirror, p)
		case 1: // vendor upgrades a product
			i := rng.Intn(len(mirror))
			p := randomPoint(rng, 3)
			ops = []toprr.Op{toprr.Update(i, p)}
			mirror[i] = p
		case 2: // vendor withdraws a product (swap-with-last)
			i := rng.Intn(len(mirror))
			ops = []toprr.Op{toprr.Delete(i)}
			mirror[i] = mirror[len(mirror)-1]
			mirror = mirror[:len(mirror)-1]
		}
		gen, err := engine.Apply(ctx, ops)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if want := toprr.Generation(2 + step); gen != want {
			t.Fatalf("step %d: generation = %d, want %d", step, gen, want)
		}
		if engine.Len() != len(mirror) {
			t.Fatalf("step %d: engine has %d options, mirror %d", step, engine.Len(), len(mirror))
		}

		q := randomQuery(rng, 3, 2+rng.Intn(3))
		got, err := engine.Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := toprr.Solve(ctx, toprr.NewProblem(mirror, q.K, q.WR), toprr.Options{Alg: toprr.TASStar})
		if err != nil {
			t.Fatalf("step %d: oracle solve: %v", step, err)
		}
		for probe := 0; probe < 300; probe++ {
			o := randomPoint(rng, 3)
			if got.IsTopRanking(o) != want.IsTopRanking(o) {
				t.Fatalf("step %d: engine diverges from rebuilt dataset at %v", step, o)
			}
		}
	}
}

// TestEngineIncrementalInvalidation: a single insert into a warm engine
// must retain the top-k cache entries that do not involve the new
// option, rather than dropping the cache to zero, and the engine must
// still answer exactly after a following delete.
func TestEngineIncrementalInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	pts := randomMarket(rng, 150, 3)
	engine := toprr.NewEngine(pts)

	for i := 0; i < 4; i++ {
		if _, err := engine.Solve(ctx, wideQuery(rng, 3, 2+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	before := engine.CacheStats()
	if before.TopKConfigs == 0 {
		t.Fatalf("warmup interned nothing: %+v", before)
	}

	if _, err := engine.Apply(ctx, []toprr.Op{toprr.Insert(randomPoint(rng, 3))}); err != nil {
		t.Fatal(err)
	}
	after := engine.CacheStats()
	if after.Generation != 2 {
		t.Errorf("generation = %d, want 2", after.Generation)
	}
	// Explicit candidate-set configurations avoid the new option.
	if after.TopKConfigs == 0 {
		t.Error("insert dropped every top-k configuration; invalidation is not incremental")
	}
	if after.TopKHits+after.TopKMisses < before.TopKHits+before.TopKMisses {
		t.Error("cache counters went backwards across the advance")
	}

	if _, err := engine.Apply(ctx, []toprr.Op{toprr.Delete(0)}); err != nil {
		t.Fatal(err)
	}

	// The warm-but-advanced engine still answers correctly.
	q := randomQuery(rng, 3, 3)
	got, err := engine.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	fresh := toprr.NewEngine(engine.Scorer().Points())
	want, err := fresh.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 200; probe++ {
		o := randomPoint(rng, 3)
		if got.IsTopRanking(o) != want.IsTopRanking(o) {
			t.Fatalf("post-mutation engine diverges at %v", o)
		}
	}
}

// TestEngineConcurrentSolveApply: readers pin their generation — solves
// racing a stream of mutations answer exactly for the snapshot they
// started from. Run under -race in CI.
func TestEngineConcurrentSolveApply(t *testing.T) {
	concurrentSolveApply(t, 13, 99, 100, 25, 50)
}

// TestShardedConcurrentSolveApply: the same race on a second seeded
// stream, longer and with a larger writer share. The name predates the
// unsharded engine; the stream is kept for its seeds. Run under -race
// in CI.
func TestShardedConcurrentSolveApply(t *testing.T) {
	concurrentSolveApply(t, 26, 77, 300, 30, 40)
}

// concurrentSolveApply races one writer applying ops single-op batches
// (seeded writerSeed) against three readers (seeded readerSeed+r) over a
// 100-option market drawn from dataSeed. Each reader verifies up to
// probes candidate options of its answer against the pinned scorer.
func concurrentSolveApply(t *testing.T, dataSeed, writerSeed, readerSeed int64, ops, probes int) {
	t.Helper()
	seedRng := rand.New(rand.NewSource(dataSeed))
	ctx := context.Background()
	pts := randomMarket(seedRng, 100, 3)
	engine := toprr.NewEngine(pts)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One writer: a stream of inserts, upgrades and withdrawals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wrng := rand.New(rand.NewSource(writerSeed))
		for i := 0; i < ops; i++ {
			var op toprr.Op
			n := engine.Len()
			switch wrng.Intn(3) {
			case 0:
				op = toprr.Insert(randomPoint(wrng, 3))
			case 1:
				if n > 60 {
					op = toprr.Delete(wrng.Intn(n))
				} else {
					op = toprr.Insert(randomPoint(wrng, 3))
				}
			default:
				op = toprr.Update(wrng.Intn(n), randomPoint(wrng, 3))
			}
			if _, err := engine.Apply(ctx, []toprr.Op{op}); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()

	// Readers: pin a snapshot, solve, and verify the answer against the
	// pinned scorer with the brute-force rank oracle — if a mutation
	// leaked into the solve, the verification would use the wrong
	// dataset and fail.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := engine.Snapshot()
				q := randomQuery(rr, 3, 2+rr.Intn(3))
				res, err := engine.SolveAt(ctx, snap, q)
				if err != nil {
					t.Errorf("solve at gen %d: %v", snap.Gen, err)
					return
				}
				if res.Problem.Scorer != snap.Scorer {
					t.Error("solve did not run against its pinned snapshot")
					return
				}
				prob := toprr.Problem{Scorer: snap.Scorer, K: q.K, WR: q.WR}
				for probe := 0; probe < probes; probe++ {
					o := randomPoint(rr, 3)
					if !res.IsTopRanking(o) {
						continue
					}
					if w := toprr.VerifyTopRanking(prob, o, 20, rr); w != nil {
						t.Errorf("gen %d: option %v accepted but not top-%d at pinned weights %v", snap.Gen, o, q.K, w)
					}
					break
				}
			}
		}(readerSeed + int64(r))
	}
	wg.Wait()
}

// TestEngineApplyValidation: invalid ops reject atomically without
// moving the generation, and a cancelled context rejects the batch.
func TestEngineApplyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ctx := context.Background()
	engine := toprr.NewEngine(randomMarket(rng, 20, 3))

	if _, err := engine.Apply(ctx, []toprr.Op{toprr.Delete(999)}); err == nil {
		t.Error("out-of-range delete should error")
	}
	if _, err := engine.Apply(ctx, []toprr.Op{toprr.Insert(vec.Of(0.5))}); err == nil {
		t.Error("wrong-dimension insert should error")
	}
	if g := engine.Generation(); g != 1 {
		t.Errorf("rejected ops moved the generation to %d", g)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := engine.Apply(cancelled, []toprr.Op{toprr.Insert(randomPoint(rng, 3))}); err == nil {
		t.Error("cancelled context should reject the batch")
	}
	if g := engine.Generation(); g != 1 {
		t.Errorf("cancelled apply moved the generation to %d", g)
	}
}
