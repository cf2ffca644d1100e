package bench

// Contracts of the paper drivers that a code change must not move
// silently: the exact partition work two figures perform at a pinned
// scale and their allocation volume. Every input is seeded, so the
// counts do not depend on the machine or on GOMAXPROCS.

import (
	"runtime"
	"testing"

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
