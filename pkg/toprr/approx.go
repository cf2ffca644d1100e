package toprr

import (
	"fmt"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// certSlack is the margin the approximate fast path demands before
// certifying an answer from sketch bounds alone. The sketch's scores
// are computed with the same scalar kernel as the exact plane, so in
// principle no slack is needed; the margin absorbs rounding in the
// monotone threshold bound and errs toward falling back — the direction
// that costs time, never correctness.
const certSlack = 1e-9

// Estimate is an interval answer from the approximate fast path. The
// exact answer always lies in [Lo, Hi]. Certified reports that the
// sketch tier's deterministic bounds pinned the interval on their own;
// when they could not, the engine fell back to the exact plane — the
// interval then collapses to the exact answer and Certified is false.
// CacheStats.SketchCertified and SketchFallbacks count the two
// outcomes.
type Estimate struct {
	Lo, Hi    float64
	Certified bool
}

// ImpactQuery asks where a hypothetical new option would rank: at
// reduced preference W, how many existing options score strictly above
// a new option placed at P, plus one. K is the rank threshold the
// caller cares about — the estimate is certified as soon as the bounds
// decide K-membership, even if they don't pin the exact rank.
type ImpactQuery struct {
	W vec.Vector // reduced preference (d-1 components)
	P vec.Vector // option-space placement of the hypothetical option
	K int        // rank threshold of interest
}

// validatePref checks a reduced preference vector and rank threshold
// against a snapshot, mirroring RankAt's contract. The components may
// sum to 1 + geom.Eps: PrefBox treats points within geom.Eps of the
// simplex face as on it, so its clipped vertices can overshoot 1 by an
// ulp.
func validatePref(snap Snapshot, w vec.Vector, k int) error {
	if snap.Scorer == nil {
		return fmt.Errorf("toprr: zero snapshot (use Engine.Snapshot)")
	}
	if k <= 0 || k > snap.Scorer.Len() {
		return fmt.Errorf("toprr: k=%d out of range for %d options", k, snap.Scorer.Len())
	}
	if len(w) != snap.Scorer.PrefDim() {
		return fmt.Errorf("toprr: preference dimension %d, want %d", len(w), snap.Scorer.PrefDim())
	}
	sum := 0.0
	for j, wj := range w {
		if !(wj >= 0) {
			return fmt.Errorf("toprr: preference component %d = %v, want >= 0", j, wj)
		}
		sum += wj
	}
	if sum > 1+geom.Eps {
		return fmt.Errorf("toprr: preference components sum to %v, want <= 1", sum)
	}
	return nil
}

// ApproxRank bounds TopK(w) — the k-th highest score at reduced
// preference w over the current dataset — from the sketch tier. When
// the sketch's k-th monitored score exceeds the deterministic
// upper bound on every unmonitored option, the monitored set provably
// contains the true top k and the returned interval is the exact score
// (Certified true); the warm certified path allocates nothing. When the
// bounds cannot certify — heavy folding, k beyond the monitored budget,
// or a sketch generation behind the store — the call falls back to the
// exact plane (memoized when the generation matches) and returns the
// exact score with Certified false. Either way the exact TopK(w) lies
// in [Lo, Hi].
func (e *Engine) ApproxRank(w vec.Vector, k int) (Estimate, error) {
	snap := e.store.Snapshot()
	if err := validatePref(snap, w, k); err != nil {
		return Estimate{}, err
	}
	if m := e.sketches.For(snap.Scorer); m != nil {
		if sk, ok := m.KthBest(w, k); ok {
			if u := m.UpperUnmonitored(w); u+certSlack <= sk {
				// Every unmonitored option scores below the k-th monitored
				// one, so the monitored set contains the true top k and sk
				// is TopK(w) exactly (computed with the same scalar kernel
				// as the exact plane).
				e.sketchCertified.Add(1)
				return Estimate{Lo: sk, Hi: sk, Certified: true}, nil
			}
		}
	}
	e.sketchFallbacks.Add(1)
	var res *topk.Result
	if c := e.caches.GetFor(snap.Scorer, k, nil); c != nil {
		res, _ = c.Lookup(w)
	} else {
		res = snap.Scorer.TopK(w, k, nil)
	}
	return Estimate{Lo: res.KthScore, Hi: res.KthScore}, nil
}

// ApproxImpact bounds the rank a hypothetical new option placed at q.P
// would take at preference q.W: one plus the number of existing options
// scoring strictly above it. Lo counts the monitored entries above; Hi
// adds the folded members unless the threshold bound proves none of
// them can score above the placement. The estimate is certified as soon
// as the interval decides rank <= q.K one way or the other; otherwise
// the engine falls back to an exact scan of the snapshot and returns
// the exact rank with Certified false.
func (e *Engine) ApproxImpact(q ImpactQuery) (Estimate, error) {
	snap := e.store.Snapshot()
	if err := validatePref(snap, q.W, q.K); err != nil {
		return Estimate{}, err
	}
	if len(q.P) != snap.Scorer.Dim() {
		return Estimate{}, fmt.Errorf("toprr: option dimension %d, want %d", len(q.P), snap.Scorer.Dim())
	}
	sq := topk.ScorePoint(q.W, q.P)
	if m := e.sketches.For(snap.Scorer); m != nil {
		lo := 1 + m.CountAbove(q.W, sq)
		hi := lo
		if m.Folded() > 0 && m.UpperUnmonitored(q.W)+certSlack > sq {
			hi += m.Folded()
		}
		if hi <= q.K || lo > q.K {
			e.sketchCertified.Add(1)
			return Estimate{Lo: float64(lo), Hi: float64(hi), Certified: true}, nil
		}
	}
	e.sketchFallbacks.Add(1)
	sc := snap.Scorer
	rank := 1
	for i := 0; i < sc.Len(); i++ {
		if topk.ScorePoint(q.W, sc.Point(i)) > sq {
			rank++
		}
	}
	return Estimate{Lo: float64(rank), Hi: float64(rank)}, nil
}
