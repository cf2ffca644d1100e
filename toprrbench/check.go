package main

// The correctness gate. Sampled answers are kept during the timed phase
// with the points of the snapshot they were computed on (not the
// snapshot itself, so the gate pins no engine generation), and checked
// after it, outside every timed op:
//   - a solve must describe the region of a cold, cache-free, unsharded
//     toprr.Solve on the same snapshot, and a one-worker solve of the
//     same query on a fresh engine must match that oracle in region
//     fingerprint and constraints (checkSolve);
//   - a Rank must equal Scorer.TopK;
//   - an ApproxRank interval must contain the exact k-th score;
//   - a placement must satisfy its region's constraints within the
//     placement QP's own feasibility tolerance.
// The http workload checks its answers against an in-process engine over
// the same points (httpload.go); ingest also reopens its data directory.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// sampleEvery keeps one answer of each kind in this many for the gate.
const sampleEvery = 8

// maxChecks bounds the cold solves the gate runs per kind.
const maxChecks = 24

type kept struct {
	kind  opKind
	pts   []vec.Vector // the snapshot's points
	q     toprr.Query
	w     vec.Vector
	k     int
	cons  []geom.Halfspace // solve
	rank  []int            // rank
	lo    float64          // approx
	hi    float64
	place vec.Vector
	res   *toprr.Result // place: the region placed into
}

type checker struct {
	seen  [numKinds]int
	kept  []kept
	count [numKinds]int
}

// want reports whether this op's answer is kept for the gate.
func (c *checker) want(k opKind) bool {
	c.seen[k]++
	return c.seen[k]%sampleEvery == 1 && c.count[k] < maxChecks
}

func (c *checker) keep(x kept) {
	c.count[x.kind]++
	c.kept = append(c.kept, x)
}

// run checks every kept answer and returns the failures.
func (c *checker) run(ctx context.Context) []string {
	var bad []string
	for _, x := range c.kept {
		if err := checkOne(ctx, x); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", x.kind, err))
		}
	}
	return bad
}

func checkOne(ctx context.Context, x kept) error {
	switch x.kind {
	case kindSolve:
		return checkSolve(ctx, x.pts, x.q, x.cons)
	case kindRank:
		want := topk.NewScorer(x.pts).TopK(x.w, x.k, nil).Ordered
		if !equalInts(x.rank, want) {
			return fmt.Errorf("Rank(w=%v, k=%d) = %v, Scorer.TopK = %v", x.w, x.k, x.rank, want)
		}
	case kindApprox:
		return checkInterval(topk.NewScorer(x.pts), x.w, x.k, x.lo, x.hi)
	case kindPlace:
		for _, h := range x.res.ORConstraints {
			if v := -h.Eval(x.place); v > placeTol*(1+math.Abs(h.B)) {
				return fmt.Errorf("cost-optimal placement %v violates a constraint of its region by %g", x.place, v)
			}
		}
	}
	return nil
}

// checkSolve checks a solved region against a cold oracle solve on the
// same snapshot: one worker, no shared caches, no shards, no sketch gate.
//
// The answer under test must describe the oracle's region: each one's
// vertices satisfy the other's constraints. Its constraint list may
// differ, because the partition of wR, and with it the redundant impact
// halfspaces, depends on the order two workers finish regions in and on
// what the warm caches already hold. The exact comparison therefore runs
// where the engine promises it: a one-worker solve on a freshly opened
// engine over the same points, through its shards, sketch gate and
// parallel assembler, must equal the oracle's region fingerprint and
// constraints bit for bit.
func checkSolve(ctx context.Context, pts []vec.Vector, q toprr.Query, got []geom.Halfspace) error {
	cold, err := toprr.Solve(ctx, toprr.NewProblem(pts, q.K, q.WR), toprr.Options{Alg: toprr.TASStar})
	if err != nil {
		return fmt.Errorf("oracle solve: %w", err)
	}
	want := cold.ORConstraints
	if err := sameRegion(len(pts[0]), got, want); err != nil {
		return fmt.Errorf("k=%d: %w", q.K, err)
	}
	fresh, err := toprr.OpenEngine(pts)
	if err != nil {
		return fmt.Errorf("fresh engine: %w", err)
	}
	defer fresh.Close()
	det, err := fresh.SolveAt(ctx, fresh.Snapshot(), toprr.Query{K: q.K, WR: q.WR, Options: &toprr.Options{Alg: toprr.TASStar, Workers: 1}})
	if err != nil {
		return fmt.Errorf("one-worker solve: %w", err)
	}
	if a, b := fingerprint(det.ORConstraints), fingerprint(want); a != b {
		return fmt.Errorf("k=%d: one-worker region fingerprint %x, oracle %x", q.K, a, b)
	}
	if !equalConstraints(det.ORConstraints, want) {
		return fmt.Errorf("k=%d: one-worker constraints (%d) differ from the oracle's (%d)", q.K, len(det.ORConstraints), len(want))
	}
	return nil
}

// placeTol is the feasibility tolerance the placement QP promises: it
// returns a point only when every constraint holds within
// placeTol·(1+|b|) and reports the region infeasible otherwise
// (internal/qp). It is looser than geom.Eps, so a placement can satisfy
// the QP's promise and still fail Result.IsTopRanking by a few 1e-9.
const placeTol = 1e-6

// regionTol is how far a vertex of one region may violate a constraint
// of the other before the regions count as different.
const regionTol = 1e-9

// sameRegion reports whether two H-representations inside the option
// box [0,1]^d describe the same convex region: every vertex of each
// satisfies every constraint of the other.
func sameRegion(d int, a, b []geom.Halfspace) error {
	va, vb := vertices(d, a), vertices(d, b)
	if len(va) == 0 || len(vb) == 0 {
		return fmt.Errorf("empty region (%d and %d vertices)", len(va), len(vb))
	}
	for _, v := range va {
		if worst := violation(b, v); worst > regionTol {
			return fmt.Errorf("a vertex of the answer violates the oracle region by %g", worst)
		}
	}
	for _, v := range vb {
		if worst := violation(a, v); worst > regionTol {
			return fmt.Errorf("a vertex of the oracle region violates the answer by %g", worst)
		}
	}
	return nil
}

func vertices(d int, hs []geom.Halfspace) []vec.Vector {
	hi := vec.New(d)
	for j := range hi {
		hi[j] = 1
	}
	p := geom.NewBox(vec.New(d), hi)
	for _, h := range hs {
		p = p.Clip(h)
	}
	return p.VertexPoints()
}

func violation(hs []geom.Halfspace, v vec.Vector) float64 {
	worst := 0.0
	for _, h := range hs {
		worst = math.Max(worst, -h.Eval(v))
	}
	return worst
}

// checkInterval checks that [lo, hi] contains the exact k-th score at w.
func checkInterval(sc *topk.Scorer, w vec.Vector, k int, lo, hi float64) error {
	exact := sc.TopK(w, k, nil).KthScore
	if !(lo <= exact && exact <= hi) {
		return fmt.Errorf("ApproxRank(w=%v, k=%d) = [%v, %v] misses the exact k-th score %v", w, k, lo, hi, exact)
	}
	return nil
}

func fingerprint(hs []geom.Halfspace) uint64 {
	var h topk.RegionHash
	for _, c := range hs {
		h.Add(c.A, c.B)
	}
	return h.Sum()
}

// equalConstraints compares two constraint lists as multisets, bit for
// bit.
func equalConstraints(a, b []geom.Halfspace) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(h geom.Halfspace) string {
		s := make([]byte, 0, 8*(len(h.A)+1))
		for _, x := range append(append(vec.Vector(nil), h.A...), h.B) {
			bits := math.Float64bits(x)
			for i := 0; i < 8; i++ {
				s = append(s, byte(bits>>(56-8*i)))
			}
		}
		return string(s)
	}
	ka, kb := make([]string, len(a)), make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
