package toprr_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// randomMarket builds a dataset of n random options in [0,1]^d.
func randomMarket(rng *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// randomQuery draws a feasible query region in the (d-1)-dim preference
// space.
func randomQuery(rng *rand.Rand, d, k int) toprr.Query {
	m := d - 1
	lo, hi := vec.New(m), vec.New(m)
	for j := 0; j < m; j++ {
		lo[j] = (0.1 + 0.5*rng.Float64()) * 0.8 / float64(m)
		hi[j] = lo[j] + 0.05/float64(m)
	}
	return toprr.Query{K: k, WR: toprr.PrefBox(lo, hi)}
}

// TestEngineMatchesPackageSolve: the engine's shared caches must not
// change any answer relative to one-shot solves.
func TestEngineMatchesPackageSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	pts := randomMarket(rng, 150, 3)
	engine := toprr.NewEngine(pts)
	for iter := 0; iter < 5; iter++ {
		q := randomQuery(rng, 3, 2+rng.Intn(4))
		got, err := engine.Solve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := toprr.Solve(ctx, toprr.NewProblem(pts, q.K, q.WR), toprr.Options{Alg: toprr.TASStar})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 300; probe++ {
			o := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
			if got.IsTopRanking(o) != want.IsTopRanking(o) {
				t.Fatalf("iter %d: engine solve differs at %v", iter, o)
			}
		}
	}
	cs := engine.CacheStats()
	if cs.TopKConfigs == 0 {
		t.Error("engine served queries without interning any top-k cache")
	}
}

// TestEngineSolveBatch: batch results align with their queries and
// match sequential engine solves; the shared caches see reuse.
func TestEngineSolveBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ctx := context.Background()
	pts := randomMarket(rng, 150, 3)
	engine := toprr.NewEngine(pts, toprr.WithBatchWorkers(4))

	queries := make([]toprr.Query, 8)
	for i := range queries {
		queries[i] = randomQuery(rng, 3, 2+i%3)
	}
	// Repeat one region so the batch provably shares top-k state.
	queries[7] = queries[0]

	results, err := engine.SolveBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	reference := toprr.NewEngine(pts)
	for i, q := range queries {
		if results[i] == nil {
			t.Fatalf("missing result %d", i)
		}
		want, err := reference.Solve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 200; probe++ {
			o := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
			if results[i].IsTopRanking(o) != want.IsTopRanking(o) {
				t.Fatalf("query %d: batch result differs at %v", i, o)
			}
		}
	}
	cs := engine.CacheStats()
	if cs.TopKHits == 0 {
		t.Error("batch with a repeated query produced no top-k cache hits")
	}
}

// TestEngineSolveBatchCancelled: a cancelled context aborts the batch
// with the context error.
func TestEngineSolveBatchCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomMarket(rng, 120, 3)
	engine := toprr.NewEngine(pts)
	queries := []toprr.Query{randomQuery(rng, 3, 3), randomQuery(rng, 3, 3)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.SolveBatch(ctx, queries); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineSolveBatchPartialResults: on the first error the batch
// reports the failing query's index in the wrapped error, keeps the
// results completed before the failure, and leaves failed or cancelled
// slots nil.
func TestEngineSolveBatchPartialResults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ctx := context.Background()
	pts := randomMarket(rng, 120, 3)
	// One worker makes completion order deterministic: query 0 finishes
	// before query 1 fails.
	engine := toprr.NewEngine(pts, toprr.WithBatchWorkers(1))

	qs := []toprr.Query{
		randomQuery(rng, 3, 2),
		randomQuery(rng, 3, 0), // invalid: k=0
		randomQuery(rng, 3, 2),
	}
	results, err := engine.SolveBatch(ctx, qs)
	if err == nil {
		t.Fatal("batch with an invalid query must error")
	}
	if !strings.Contains(err.Error(), "batch query 1") {
		t.Errorf("error %q does not name the failing query index", err)
	}
	if !strings.Contains(err.Error(), "k=0") {
		t.Errorf("error %q does not wrap the underlying failure", err)
	}
	if errors.Unwrap(err) == nil {
		t.Error("batch error should wrap the query error")
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d result slots for %d queries", len(results), len(qs))
	}
	if results[0] == nil {
		t.Error("query completed before the failure lost its result")
	}
	if results[1] != nil {
		t.Error("failed slot must be nil")
	}
	if results[2] != nil {
		t.Error("cancelled slot must be nil")
	}

	// Context cancellation: every slot nil, context error surfaced.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	results, err = engine.SolveBatch(cancelled, []toprr.Query{randomQuery(rng, 3, 2), randomQuery(rng, 3, 2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("cancelled batch slot %d is non-nil", i)
		}
	}
}

// TestEngineRejectsBadQueries: invalid queries error instead of
// panicking, and a bad query fails the whole batch while leaving valid
// slots either solved or nil.
func TestEngineRejectsBadQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ctx := context.Background()
	pts := randomMarket(rng, 50, 3)
	engine := toprr.NewEngine(pts)

	if _, err := engine.Solve(ctx, toprr.Query{K: 3}); err == nil {
		t.Error("nil wR should error")
	}
	if _, err := engine.Solve(ctx, randomQuery(rng, 3, 0)); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := engine.Solve(ctx, randomQuery(rng, 3, 51)); err == nil {
		t.Error("k>n should error")
	}
	bad := randomQuery(rng, 3, 0)
	if _, err := engine.SolveBatch(ctx, []toprr.Query{randomQuery(rng, 3, 2), bad}); err == nil {
		t.Error("batch with a bad query should error")
	}
}

// TestEngineQueryOptionsOverride: per-query options replace the engine
// defaults.
func TestEngineQueryOptionsOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	pts := randomMarket(rng, 100, 3)
	engine := toprr.NewEngine(pts, toprr.WithDefaults(toprr.Options{Alg: toprr.TASStar}))
	q := randomQuery(rng, 3, 3)
	q.Options = &toprr.Options{Alg: toprr.TAS, MaxRegions: 1}
	if _, err := engine.Solve(ctx, q); err == nil {
		t.Skip("instance trivially solvable within one region; override not observable")
	}
}

// oracleOptions pins the solve deterministic (one worker, fixed seed)
// so a warm engine and a cold one run bit-identical recursions.
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
