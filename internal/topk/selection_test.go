package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"toprr/internal/vec"
)

func randomPts(rng *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.New(d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// sortedTopK is the reference TopK: score every candidate with the
// scalar kernel, sort them all under (score desc, index asc) and keep
// the first k.
func sortedTopK(sc *Scorer, w vec.Vector, k int, active []int) (ordered []int, scores []float64) {
	if active == nil {
		active = make([]int, sc.Len())
		for i := range active {
			active[i] = i
		}
	}
	all := make([]scored, len(active))
	for i, idx := range active {
		all[i] = scored{idx: idx, score: ScorePoint(w, sc.Point(idx))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].idx < all[j].idx
	})
	for _, c := range all[:k] {
		ordered = append(ordered, c.idx)
		scores = append(scores, c.score)
	}
	return ordered, scores
}

// TestTopKMatchesFullSort pins the size-k selection of Scorer.TopK to a
// full sort of every candidate: Ordered, KthScore and the score column
// must match bit for bit, for the whole dataset and random subsets, k in
// {1, n/2, n}, on data with duplicate options. Half the datasets draw
// every option from a three-point palette, so the k-th score is tied
// with options outside the top k and only the index order decides.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kthTies := 0
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(120)
		d := 2 + rng.Intn(4)
		pts := randomPts(rng, n, d)
		if iter%2 == 0 {
			palette := randomPts(rng, 3, d)
			for i := range pts {
				pts[i] = palette[rng.Intn(len(palette))].Clone()
			}
		} else {
			for c := 0; c < 5; c++ {
				pts[rng.Intn(n)] = pts[rng.Intn(n)].Clone()
			}
		}
		sc := NewScorer(pts)

		var active []int
		if iter%3 == 0 {
			perm := rng.Perm(n)
			active = perm[:1+rng.Intn(n)]
		}
		m := n
		if active != nil {
			m = len(active)
		}
		for _, k := range []int{1, max(1, m/2), m} {
			w := vec.New(d - 1)
			for j := range w {
				w[j] = rng.Float64() / float64(d)
			}
			got := sc.TopK(w, k, active)
			wantOrd, wantScores := sortedTopK(sc, w, k, active)
			if len(got.Ordered) != k || len(got.scores) != k {
				t.Fatalf("iter %d k=%d: got %d entries, %d scores", iter, k, len(got.Ordered), len(got.scores))
			}
			for i := range wantOrd {
				if got.Ordered[i] != wantOrd[i] || math.Float64bits(got.scores[i]) != math.Float64bits(wantScores[i]) {
					t.Fatalf("iter %d k=%d: entry %d = (%d, %v), want (%d, %v)",
						iter, k, i, got.Ordered[i], got.scores[i], wantOrd[i], wantScores[i])
				}
			}
			if math.Float64bits(got.KthScore) != math.Float64bits(wantScores[k-1]) {
				t.Fatalf("iter %d k=%d: KthScore %v, want %v", iter, k, got.KthScore, wantScores[k-1])
			}
			if k < m {
				if _, next := sortedTopK(sc, w, k+1, active); next[k] == next[k-1] {
					kthTies++
				}
			}
		}
	}
	if kthTies == 0 {
		t.Fatal("no case tied at the k-th score; the tie-break went untested")
	}
}
