package toprr_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// oracleOptions pins the solve deterministic (one worker, fixed seed)
// so sharded and unsharded engines run bit-identical recursions.
func oracleOptions() *toprr.Options {
	return &toprr.Options{Alg: toprr.TASStar, Workers: 1, Seed: 17}
}

// sameRegion cross-checks two results by membership sampling.
func sameRegion(t *testing.T, tag string, rng *rand.Rand, d int, a, b *toprr.Result) {
	t.Helper()
	for probe := 0; probe < 300; probe++ {
		o := vec.New(d)
		for j := range o {
			o[j] = rng.Float64()
		}
		if a.IsTopRanking(o) != b.IsTopRanking(o) {
			t.Fatalf("%s: regions differ at %v", tag, o)
		}
	}
}

// TestShardedEngineMatchesOracle is the sharded-solve property suite:
// for S in {1, 2, 3, 4, 8}, random datasets, dimensionalities and k, a
// sharded engine must produce exactly the unsharded engine's regions —
// including after mutation batches, where the per-shard invalidation
// path has to keep the warm caches consistent with the new generation.
func TestShardedEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	for iter := 0; iter < 4; iter++ {
		d := 3 + iter%2
		n := 80 + rng.Intn(80)
		pts := randomMarket(rng, n, d)
		oracle := toprr.NewEngine(pts, toprr.WithShards(1))

		engines := make(map[int]*toprr.Engine)
		for _, s := range []int{2, 3, 4, 8} {
			engines[s] = toprr.NewEngine(pts, toprr.WithShards(s))
			if engines[s].Shards() != s {
				t.Fatalf("WithShards(%d) built %d shards", s, engines[s].Shards())
			}
		}

		check := func(stage string) {
			for q := 0; q < 3; q++ {
				query := randomQuery(rng, d, 1+rng.Intn(5))
				query.Options = oracleOptions()
				want, err := oracle.Solve(ctx, query)
				if err != nil {
					t.Fatalf("%s: oracle: %v", stage, err)
				}
				for s, eng := range engines {
					got, err := eng.Solve(ctx, query)
					if err != nil {
						t.Fatalf("%s: shards=%d: %v", stage, s, err)
					}
					// Deterministic options make the recursion — and
					// hence Vall and the constraint list — identical.
					if len(got.Vall) != len(want.Vall) {
						t.Fatalf("%s: shards=%d: |Vall| %d != %d", stage, s, len(got.Vall), len(want.Vall))
					}
					if len(got.ORConstraints) != len(want.ORConstraints) {
						t.Fatalf("%s: shards=%d: constraints %d != %d", stage, s, len(got.ORConstraints), len(want.ORConstraints))
					}
					sameRegion(t, stage, rng, d, got, want)
				}
			}
		}

		check("fresh")

		// Mutation batches: inserts, updates and swap-deletes applied to
		// every engine alike; warm caches must advance per shard without
		// diverging from the oracle.
		for step := 0; step < 3; step++ {
			var ops []toprr.Op
			for o := 0; o < 1+rng.Intn(3); o++ {
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, toprr.Insert(randomPoint(rng, d)))
				case 1:
					ops = append(ops, toprr.Update(rng.Intn(oracle.Len()), randomPoint(rng, d)))
				default:
					if oracle.Len() > 40 {
						ops = append(ops, toprr.Delete(rng.Intn(oracle.Len())))
					} else {
						ops = append(ops, toprr.Insert(randomPoint(rng, d)))
					}
				}
			}
			if _, err := oracle.Apply(ctx, ops); err != nil {
				t.Fatal(err)
			}
			for s, eng := range engines {
				if _, err := eng.Apply(ctx, ops); err != nil {
					t.Fatalf("shards=%d: %v", s, err)
				}
			}
			check("after mutations")
		}
	}
}

// TestShardedEngineReopenKeepsLayout: a durable sharded engine records
// its shard count in the snapshot metadata; a reopen — even one that
// asks for a different count — keeps the persisted layout and still
// matches the oracle after recovery.
func TestShardedEngineReopenKeepsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "ds")
	pts := randomMarket(rng, 100, 3)

	eng, err := toprr.OpenEngine(pts, toprr.WithShards(3), toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", eng.Shards())
	}
	var ops []toprr.Op
	for i := 0; i < 7; i++ {
		ops = append(ops, toprr.Insert(randomPoint(rng, 3)))
	}
	if _, err := eng.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen requesting a different count: the persisted layout wins.
	re, err := toprr.OpenEngine(nil, toprr.WithShards(8), toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 3 {
		t.Fatalf("reopened shards = %d, want persisted 3", re.Shards())
	}

	oracle := toprr.NewEngine(re.Scorer().Points(), toprr.WithShards(1))
	for q := 0; q < 3; q++ {
		query := randomQuery(rng, 3, 2+rng.Intn(3))
		query.Options = oracleOptions()
		want, err := oracle.Solve(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Solve(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Vall) != len(want.Vall) {
			t.Fatalf("reopened |Vall| %d != %d", len(got.Vall), len(want.Vall))
		}
		sameRegion(t, "reopen", rng, 3, got, want)
	}
}

// TestWithShardsValidation: out-of-range shard counts are rejected and
// the auto default is GOMAXPROCS-derived and at least 1.
func TestWithShardsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomMarket(rng, 20, 3)
	if _, err := toprr.OpenEngine(pts, toprr.WithShards(-1)); err == nil {
		t.Error("negative shard count should error")
	}
	if _, err := toprr.OpenEngine(pts, toprr.WithShards(toprr.MaxShards+1)); err == nil {
		t.Error("oversized shard count should error")
	}
	eng := toprr.NewEngine(pts)
	if eng.Shards() < 1 {
		t.Errorf("auto shard count %d < 1", eng.Shards())
	}
	cs := eng.CacheStats()
	if cs.Shards != eng.Shards() {
		t.Errorf("CacheStats.Shards = %d, want %d", cs.Shards, eng.Shards())
	}
}

// TestShardedCacheStatsBreakdown: a warm sharded engine reports its
// per-shard cache occupancy.
func TestShardedCacheStatsBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ctx := context.Background()
	pts := randomMarket(rng, 120, 3)
	eng := toprr.NewEngine(pts, toprr.WithShards(4))
	for i := 0; i < 4; i++ {
		if _, err := eng.Solve(ctx, randomQuery(rng, 3, 2+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.CacheStats()
	if cs.Shards != 4 || len(cs.ShardStats) != 4 {
		t.Fatalf("shard stats missing: %+v", cs)
	}
	entries := 0
	for _, ss := range cs.ShardStats {
		entries += ss.TopKEntries
	}
	if entries == 0 {
		t.Error("no memoized partials reported per shard")
	}
}

// TestShardedConcurrentSolveApply: on a sharded engine, solves racing
// a mutation stream must answer exactly for their pinned generation —
// the per-shard invalidation path swaps cache objects on advance, so a
// solve that acquired a shared sharded cache before the mutation keeps
// old-generation partials, never the successor's. Run under -race in
// CI.
func TestShardedConcurrentSolveApply(t *testing.T) {
	seedRng := rand.New(rand.NewSource(26))
	ctx := context.Background()
	pts := randomMarket(seedRng, 100, 3)
	engine := toprr.NewEngine(pts, toprr.WithShards(4))

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wrng := rand.New(rand.NewSource(77))
		for i := 0; i < 30; i++ {
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
				// Verify against the PINNED scorer: a stale or
				// next-generation partial leaking into the solve makes
				// the accepted options fail the pinned-rank oracle.
				prob := toprr.Problem{Scorer: snap.Scorer, K: q.K, WR: q.WR}
				for probe := 0; probe < 40; probe++ {
					o := randomPoint(rr, 3)
					if !res.IsTopRanking(o) {
						continue
					}
					if w := toprr.VerifyTopRanking(prob, o, 20, rr); w != nil {
						t.Errorf("gen %d: option accepted but not top-%d at pinned weights %v", snap.Gen, q.K, w)
					}
					break
				}
			}
		}(int64(300 + r))
	}
	wg.Wait()
}

// TestEngineConcurrentApplyGroupCommit: concurrent Apply callers on a
// durable engine must coalesce on the WAL fsync (strictly fewer syncs
// than batches), publish every generation exactly once in order, and
// recover the identical dataset after reopen.
func TestEngineConcurrentApplyGroupCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "gc")
	pts := randomMarket(rng, 60, 3)
	eng, err := toprr.OpenEngine(pts, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		batches = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				op := toprr.Insert(randomPoint(wr, 3))
				if _, err := eng.Apply(ctx, []toprr.Op{op}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()

	if got, want := eng.Generation(), toprr.Generation(1+writers*batches); got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	if got, want := eng.Len(), 60+writers*batches; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	ps := eng.PersistStats()
	if ps.WALSyncs == 0 {
		t.Fatal("no fsyncs recorded")
	}
	// Sanity rather than timing-dependent coalescing: never more syncs
	// than batches plus the handful of maintenance flushes.
	if ps.WALSyncs > int64(writers*batches+8) {
		t.Errorf("WALSyncs = %d for %d batches; group commit not bounding flushes", ps.WALSyncs, writers*batches)
	}
	finalPts := eng.Scorer().Points()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := toprr.OpenEngine(nil, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(finalPts) {
		t.Fatalf("recovered %d options, want %d", re.Len(), len(finalPts))
	}
	rec := re.Scorer().Points()
	for i := range finalPts {
		if !rec[i].Equal(finalPts[i], 0) {
			t.Fatalf("recovered option %d differs", i)
		}
	}
}
