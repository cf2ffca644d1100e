package bench

// Contracts of the paper drivers that a code change must not move
// silently: the exact partition work two figures perform at a pinned
// scale, their allocation volume, and the sharded engine reproducing
// the unsharded solver's work on one figure's queries. Every input is
// seeded, so the counts do not depend on the machine or on GOMAXPROCS.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"toprr/internal/dataset"
	"toprr/internal/race"
	"toprr/pkg/toprr"
)

// TestDriverWorkCounts pins fig9a and fig13 at n = 4000 options, one
// query region per data point and no budgets. The regions processed are
// exact: a change that moves them changes the partition, so it updates
// the constant and says why. Neither figure solves an LP or QP.
// Allocation may drift with map growth, so mallocs and bytes are
// bounded at 1.2x the value measured when the regions were pinned.
func TestDriverWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers take seconds")
	}
	for _, tc := range []struct {
		id      string
		regions int64
		mallocs uint64
		bytes   uint64
	}{
		{id: "fig9a", regions: 14429, mallocs: 9_773_764, bytes: 331_068_416},
		{id: "fig13", regions: 12082, mallocs: 1_351_844, bytes: 62_962_808},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, ok := Find(tc.id)
			if !ok {
				t.Fatalf("missing experiment %s", tc.id)
			}
			var before, after runtime.MemStats
			c0 := toprr.ReadCounters()
			runtime.ReadMemStats(&before)
			e.Run(Scale{N: 0.01, Queries: 1})
			runtime.ReadMemStats(&after)
			work := toprr.ReadCounters().Sub(c0)

			if work.RegionsProcessed != tc.regions {
				t.Errorf("regions processed = %d, want %d", work.RegionsProcessed, tc.regions)
			}
			if work.LPSolves != 0 || work.QPSolves != 0 {
				t.Errorf("LP solves = %d, QP solves = %d, want 0 and 0", work.LPSolves, work.QPSolves)
			}
			if race.Enabled {
				return // allocation counts are inflated under -race
			}
			if got, limit := after.Mallocs-before.Mallocs, tc.mallocs*6/5; got > limit {
				t.Errorf("mallocs = %d, limit %d", got, limit)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, tc.bytes*6/5; got > limit {
				t.Errorf("bytes allocated = %d, limit %d", got, limit)
			}
		})
	}
}

// TestShardedSolveMatchesUnsharded solves fig9a's TAS* queries on
// engines with S = 1, 2, 4 and 8 shards and one worker each: every
// solve must examine the same regions, make the same splits and emit
// the same |Vall| as the unsharded package-level Solve.
func TestShardedSolveMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers take seconds")
	}
	s := Scale{N: 0.01, Queries: 2}
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	ctx := context.Background()
	shardCounts := []int{1, 2, 4, 8}
	engines := make([]*toprr.Engine, len(shardCounts))
	for i, shards := range shardCounts {
		engines[i] = toprr.NewEngine(ds.Pts, toprr.WithShards(shards))
		defer engines[i].Close()
	}
	opts := toprr.Options{Alg: toprr.TASStar, Workers: 1}
	for i, k := range GridK {
		for q, wr := range s.Regions(DefaultD-1, DefaultSigma, 1, int64(100+i)) {
			want, err := toprr.Solve(ctx, toprr.NewProblem(ds.Pts, k, wr), opts)
			if err != nil {
				t.Fatalf("k=%d query %d: unsharded solve: %v", k, q, err)
			}
			if want.Stats.Regions == 0 {
				t.Fatalf("k=%d query %d: degenerate query, no regions processed", k, q)
			}
			for j, shards := range shardCounts {
				tag := fmt.Sprintf("k=%d query %d S=%d", k, q, shards)
				got, err := engines[j].Solve(ctx, toprr.Query{K: k, WR: wr, Options: &opts})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				g, w := got.Stats, want.Stats
				if g.Regions != w.Regions || g.Splits != w.Splits || g.VallSize != w.VallSize {
					t.Errorf("%s: regions/splits/|Vall| = %d/%d/%d, unsharded %d/%d/%d",
						tag, g.Regions, g.Splits, g.VallSize, w.Regions, w.Splits, w.VallSize)
				}
			}
		}
	}
}
