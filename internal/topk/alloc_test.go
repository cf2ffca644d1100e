package topk

// CI-enforced zero-allocation invariants for warm top-k lookups (see
// docs/PERFORMANCE.md): once a vertex's result is memoized, serving it
// again allocates nothing — the quantized uint64 hash key replaced the
// per-lookup string key.

import (
	"math/rand"
	"testing"

	"toprr/internal/race"
	"toprr/internal/vec"
)

func allocDataset(n, d int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("alloc counts are inflated under -race")
	}
}

func TestAllocsWarmCacheLookup(t *testing.T) {
	skipUnderRace(t)
	c := NewCache(NewScorer(allocDataset(500, 4, 1)), 10, nil)
	w := vec.Of(0.3, 0.25, 0.2)
	c.Get(w) // warm
	allocs := testing.AllocsPerRun(100, func() {
		if r := c.Get(w); r == nil {
			t.Fatal("nil result")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Cache.Get allocates %.1f per run, want 0", allocs)
	}
}

// TestScoreIntoMatchesScorePoint pins the SoA scoring path to the
// scalar reference bit for bit, for both full-dataset and member-subset
// scoring.
func TestScoreIntoMatchesScorePoint(t *testing.T) {
	pts := allocDataset(300, 5, 3)
	s := NewScorer(pts)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		w := make(vec.Vector, 4)
		for j := range w {
			w[j] = rng.Float64() / 4
		}
		dst := make([]float64, len(pts))
		s.scoreInto(w, nil, dst)
		for i := range pts {
			if want := ScorePoint(w, pts[i]); dst[i] != want {
				t.Fatalf("full: score[%d] = %v, want %v", i, dst[i], want)
			}
		}
		members := []int{7, 3, 299, 0, 158}
		sub := make([]float64, len(members))
		s.scoreInto(w, members, sub)
		for t2, idx := range members {
			if want := ScorePoint(w, pts[idx]); sub[t2] != want {
				t.Fatalf("subset: score[%d] = %v, want %v", idx, sub[t2], want)
			}
		}
	}
}
