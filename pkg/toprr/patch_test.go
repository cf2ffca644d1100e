package toprr_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// rankWeight draws a reduced preference vector (d-1 components summing
// to at most 1) for Engine.Rank.
func rankWeight(rng *rand.Rand, d int) vec.Vector {
	w := vec.New(d - 1)
	for j := range w {
		w[j] = rng.Float64() / float64(d)
	}
	return w
}

// TestEnginePatchOnInsert: a pure-insert batch into a warm engine must
// route through the patch plane — the patch counters move, every
// memoized top-k configuration survives, and
// whole-dataset rank memos are repaired by splicing — while a delete
// must leave the patch counters flat (it takes the reshape path). A
// dominated insert that cracks no memoized top-k must count as an
// untouched advance and drop zero cache entries.
func TestEnginePatchOnInsert(t *testing.T) {
	// One row, named for the one-shard engine it ran on when engines
	// could be sharded.
	t.Run("shards=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		ctx := context.Background()
		d := 3
		n := 150
		engine := toprr.NewEngine(randomMarket(rng, n, d))

		for i := 0; i < 4; i++ {
			if _, err := engine.Solve(ctx, wideQuery(rng, d, 2+i%3)); err != nil {
				t.Fatal(err)
			}
		}
		// Whole-dataset rankings populate the nil-active memos the
		// patch plane repairs.
		weights := make([]vec.Vector, 8)
		for i := range weights {
			weights[i] = rankWeight(rng, d)
			if _, err := engine.Rank(weights[i], 3+i%3); err != nil {
				t.Fatal(err)
			}
		}
		before := engine.CacheStats()
		if before.TopKConfigs == 0 {
			t.Fatalf("warmup interned nothing: %+v", before)
		}
		if before.PatchInserts != 0 || before.UntouchedAdvances != 0 {
			t.Fatalf("patch counters moved before any insert: %+v", before)
		}

		// A corner-dominant insert cracks warm top-k entries: the
		// batch must patch, not drop.
		if _, err := engine.Apply(ctx, []toprr.Op{
			toprr.Insert(vec.Of(0.999, 0.998, 0.997)),
			toprr.Insert(randomPoint(rng, d)),
		}); err != nil {
			t.Fatal(err)
		}
		after := engine.CacheStats()
		if after.PatchInserts != before.PatchInserts+2 {
			t.Errorf("PatchInserts = %d, want %d", after.PatchInserts, before.PatchInserts+2)
		}
		if after.PatchedEntries == 0 {
			t.Error("dominant insert patched no memoized entries")
		}
		if after.TopKConfigs != before.TopKConfigs {
			t.Errorf("patch advance dropped configurations: %d -> %d", before.TopKConfigs, after.TopKConfigs)
		}
		if after.Evictions != before.Evictions {
			t.Errorf("patch advance recorded evictions: %d -> %d", before.Evictions, after.Evictions)
		}
		if after.UntouchedAdvances != before.UntouchedAdvances {
			t.Errorf("dominant insert counted as untouched: %d -> %d", before.UntouchedAdvances, after.UntouchedAdvances)
		}
		// The patched rank memos already place the dominant option
		// first, at every memoized preference.
		for i, w := range weights {
			got, err := engine.Rank(w, 3+i%3)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != n {
				t.Errorf("rank at %v = %v, want dominant slot %d first", w, got, n)
			}
		}

		// A fully dominated option can crack no top-k: the advance is
		// untouched — the region-delta signal — and drops nothing.
		if _, err := engine.Apply(ctx, []toprr.Op{toprr.Insert(vec.New(d))}); err != nil {
			t.Fatal(err)
		}
		dominated := engine.CacheStats()
		if dominated.UntouchedAdvances != after.UntouchedAdvances+1 {
			t.Errorf("UntouchedAdvances = %d, want %d", dominated.UntouchedAdvances, after.UntouchedAdvances+1)
		}
		if dominated.PatchedEntries != after.PatchedEntries {
			t.Errorf("dominated insert patched entries: %d -> %d", after.PatchedEntries, dominated.PatchedEntries)
		}
		if dominated.TopKConfigs != after.TopKConfigs || dominated.Evictions != after.Evictions {
			t.Errorf("dominated insert dropped cache state: %+v -> %+v", after, dominated)
		}

		// A delete reshapes slots and must bypass the patch plane.
		if _, err := engine.Apply(ctx, []toprr.Op{toprr.Delete(0)}); err != nil {
			t.Fatal(err)
		}
		deleted := engine.CacheStats()
		if deleted.PatchInserts != dominated.PatchInserts || deleted.UntouchedAdvances != dominated.UntouchedAdvances {
			t.Errorf("delete moved patch counters: %+v -> %+v", dominated, deleted)
		}

		// The patched-then-reshaped engine still answers exactly like a
		// cold engine over the same points.
		q := randomQuery(rng, d, 3)
		q.Options = oracleOptions()
		got, err := engine.Solve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		fresh := toprr.NewEngine(engine.Scorer().Points())
		want, err := fresh.Solve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameRegion(t, "post-patch", rng, d, got, want)
	})
}

// TestEngineRank: Rank validates its inputs, memoizes repeated
// rankings, and RankAt against a pinned older snapshot answers for that
// generation without touching the shared memo.
func TestEngineRank(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ctx := context.Background()
	d := 3
	engine := toprr.NewEngine(randomMarket(rng, 50, d))

	w := rankWeight(rng, d)
	if _, err := engine.Rank(w, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := engine.Rank(w, 51); err == nil {
		t.Error("k > n should error")
	}
	if _, err := engine.Rank(vec.New(d), 3); err == nil {
		t.Error("wrong preference dimension should error")
	}
	if _, err := engine.Rank(vec.Of(-0.1, 0.2), 3); err == nil {
		t.Error("negative component should error")
	}
	if _, err := engine.Rank(vec.Of(0.7, 0.7), 3); err == nil {
		t.Error("components summing past 1 should error")
	}

	first, err := engine.Rank(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 5 {
		t.Fatalf("rank returned %d indices, want 5", len(first))
	}
	before := engine.CacheStats()
	again, err := engine.Rank(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := engine.CacheStats()
	if after.TopKMisses != before.TopKMisses {
		t.Errorf("repeated ranking missed the memo: %d -> %d misses", before.TopKMisses, after.TopKMisses)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("repeated ranking diverged: %v vs %v", first, again)
		}
	}

	// A pinned snapshot keeps answering for its own generation after the
	// dataset moves on.
	snap := engine.Snapshot()
	if _, err := engine.Apply(ctx, []toprr.Op{toprr.Insert(vec.Of(0.999, 0.998, 0.997))}); err != nil {
		t.Fatal(err)
	}
	old, err := engine.RankAt(snap, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range old {
		if old[i] != first[i] {
			t.Fatalf("pinned ranking moved with the dataset: %v vs %v", old, first)
		}
	}
	cur, err := engine.Rank(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cur[0] != 50 {
		t.Errorf("current ranking = %v, want dominant slot 50 first", cur)
	}
}

// TestEnginePatchedSolveMatchesFresh: after a stream of pure-insert
// batches repaired in place, a warm engine's deterministic solves must
// be bit-identical to a cold engine built from the final point set —
// same recursion (|Vall|), same constraint count, same region — over
// four rounds of fresh engines.
func TestEnginePatchedSolveMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	d := 3
	pts := randomMarket(rng, 90, d)

	for round := 0; round < 4; round++ {
		engine := toprr.NewEngine(pts)
		for i := 0; i < 3; i++ {
			if _, err := engine.Solve(ctx, wideQuery(rng, d, 2+i)); err != nil {
				t.Fatal(err)
			}
		}
		for batch := 0; batch < 4; batch++ {
			ops := make([]toprr.Op, 0, 3)
			for o := 0; o < 1+rng.Intn(3); o++ {
				ops = append(ops, toprr.Insert(randomPoint(rng, d)))
			}
			if _, err := engine.Apply(ctx, ops); err != nil {
				t.Fatal(err)
			}

			fresh := toprr.NewEngine(engine.Scorer().Points())
			for q := 0; q < 2; q++ {
				query := randomQuery(rng, d, 1+rng.Intn(5))
				query.Options = oracleOptions()
				got, err := engine.Solve(ctx, query)
				if err != nil {
					t.Fatalf("round %d batch %d: %v", round, batch, err)
				}
				want, err := fresh.Solve(ctx, query)
				if err != nil {
					t.Fatalf("round %d batch %d: fresh: %v", round, batch, err)
				}
				if len(got.Vall) != len(want.Vall) {
					t.Fatalf("round %d batch %d: |Vall| %d != %d", round, batch, len(got.Vall), len(want.Vall))
				}
				if len(got.ORConstraints) != len(want.ORConstraints) {
					t.Fatalf("round %d batch %d: constraints %d != %d", round, batch, len(got.ORConstraints), len(want.ORConstraints))
				}
				sameRegion(t, fmt.Sprintf("round %d batch %d", round, batch), rng, d, got, want)
			}
		}
		stats := engine.CacheStats()
		if stats.PatchInserts == 0 {
			t.Fatalf("round %d: insert batches never took the patch path", round)
		}
	}
}
