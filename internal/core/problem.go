package core

import (
	"fmt"
	"time"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Algorithm selects a TopRR solver.
type Algorithm int

// The three TopRR algorithms of the paper.
const (
	PAC Algorithm = iota
	TAS
	TASStar
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case PAC:
		return "PAC"
	case TAS:
		return "TAS"
	case TASStar:
		return "TAS*"
	default:
		return fmt.Sprintf("alg(%d)", int(a))
	}
}

// Problem is a TopRR instance.
type Problem struct {
	Scorer *topk.Scorer   // the dataset D
	K      int            // rank threshold
	WR     *geom.Polytope // target preference region (convex polytope in W)
}

// NewProblem assembles a TopRR instance over the given options.
func NewProblem(pts []vec.Vector, k int, wr *geom.Polytope) Problem {
	s := topk.NewScorer(pts)
	if wr.Dim != s.PrefDim() {
		panic(fmt.Sprintf("core: wR dimension %d, want %d", wr.Dim, s.PrefDim()))
	}
	if k <= 0 || k > s.Len() {
		panic(fmt.Sprintf("core: k=%d out of range for %d options", k, s.Len()))
	}
	return Problem{Scorer: s, K: k, WR: wr}
}

// PrefBox builds a preference region wR as the axis-aligned box
// [lo, hi] in W, intersected with the validity constraints of the
// preference space: w[j] >= 0 and Σ w[j] <= 1 (so that the derived last
// weight is nonnegative). It panics if the intersection is empty.
func PrefBox(lo, hi vec.Vector) *geom.Polytope {
	m := len(lo)
	clampedLo := lo.Clone()
	for j := range clampedLo {
		if clampedLo[j] < 0 {
			clampedLo[j] = 0
		}
	}
	p := geom.NewBox(clampedLo, hi)
	ones := vec.New(m)
	for j := range ones {
		ones[j] = -1
	}
	p = p.Clip(geom.NewHalfspace(ones, -1)) // Σ w[j] <= 1
	if p.IsEmpty() {
		panic("core: preference region is empty after simplex clipping")
	}
	return p
}

// Options tunes a Solve call. The Disable* switches exist for the
// paper's ablation study (Section 6.5) and only affect TAS*.
//
// TopKCaches accepts an engine-owned cross-query top-k registry so
// batches of solves over one dataset amortize scoring work; it must be
// bound to the problem's dataset.
type Options struct {
	Alg              Algorithm
	DisableLemma5    bool          // TAS*: skip consistent top-λ pruning (Section 5.1)
	DisableLemma7    bool          // TAS*: skip optimized region testing (Section 5.2)
	DisableKSwitch   bool          // TAS*: random Case-1 pair instead of k-switch (Section 5.3)
	DisableTopKCache bool          // ablation: recompute top-k at every vertex instead of caching
	Workers          int           // parallel region processing (default 1 = sequential)
	MaxRegions       int           // safety valve on the recursion (default 2,000,000)
	ORVertexBudget   int           // vertex cap for enumerating oR's geometry (default 5,000)
	Timeout          time.Duration // wall-clock budget for one solve (0 = unlimited)
	Seed             int64         // seed for the random pair choices of PAC/TAS

	TopKCaches *topk.Registry // optional cross-query top-k memoization

	// SketchGate accelerates the r-skyband prefilter: when the hook
	// certifies that every option outside its candidate list can never
	// enter a top-k result over wR, the exact dominance sweep runs only
	// over the certified candidates. The gate engages only with a
	// certificate, and only to skip work whose outcome the certificate
	// pins — a gated solve is bit-identical to an ungated one.
	// DisableSketchGate turns the hook off for one solve (ablation and
	// A/B harnesses).
	SketchGate        GateFn
	DisableSketchGate bool
}

// GateFn is the sketch-certification hook of the prefilter stage
// (Options.SketchGate). Given the solve's dataset, the query region's
// vertices and the rank threshold, it either certifies — deterministic
// sketch bounds, never heuristics — that every option outside cands is
// r-dominated by at least k options over the region (ok true; skipped
// counts the options certified out), or declines (ok false) and the
// solve runs the full unassisted prefilter. Implementations must be
// safe for concurrent use and must decline for any dataset generation
// other than the one they summarize.
type GateFn func(sc *topk.Scorer, verts []vec.Vector, k int) (cands []int, skipped int, ok bool)

func (o Options) withDefaults() Options {
	if o.MaxRegions <= 0 {
		o.MaxRegions = 2000000
	}
	if o.ORVertexBudget <= 0 {
		o.ORVertexBudget = 5000
	}
	return o
}

// Stats captures the instrumentation the paper reports in Sections 6.4
// and 6.5.
type Stats struct {
	InputOptions    int           // |D|
	FilteredOptions int           // |D'| after the r-skyband filter
	ProcessedMin    int           // smallest active set seen (Lemma 5 shrinks it)
	Regions         int           // confirmed regions (kIPRs, or Lemma 7 accepts)
	Splits          int           // split operations performed
	Lemma5Prunes    int           // options removed by Lemma 5 across the recursion
	Lemma7Accepts   int           // non-kIPR regions accepted by Lemma 7
	DegenerateStops int           // regions accepted because no valid cut existed (ties)
	VallSize        int           // |Vall| (Theorem 1 vertex set)
	TopKQueries     int           // top-k computations incl. cache hits
	TopKMisses      int           // top-k computations that did real work
	ImpactClips     int           // impact halfspaces applied to build oR
	UniqueImpacts   int           // deduplicated impact halfspaces in the H-representation
	SketchGated     bool          // the sketch gate certified this solve's prefilter
	SketchSkips     int           // options the certificate excused from exact dominance tests
	Elapsed         time.Duration // wall-clock time of Solve
}

// Result is the output of a TopRR solve.
//
// The exact answer is ORConstraints: oR is precisely the set of options
// satisfying every constraint (Theorem 1's halfspace intersection plus
// the option-space box). OR additionally carries the explicit geometry
// (vertices and facets) of that region; in high dimensions with many
// near-parallel impact halfspaces the vertex enumeration can exceed
// Options.ORVertexBudget, in which case OR is nil while ORConstraints —
// and hence membership tests and all placement optimizations — remain
// exact.
type Result struct {
	OR            *geom.Polytope   // explicit geometry of oR, nil if the vertex budget was exceeded
	ORConstraints []geom.Halfspace // exact H-representation of oR (always set)
	Vall          []ImpactVertex   // defining vertices of the confirmed regions
	Stats         Stats
	Problem       Problem
}

// ImpactVertex is an element of Vall: a preference-space vertex together
// with TopK(v), the k-th highest score of D at it, which defines the
// impact halfspace oH(v) of Definition 2.
type ImpactVertex struct {
	W        vec.Vector // reduced weight vector (vertex of a confirmed region)
	KthScore float64    // TopK(v) in the paper's notation
}

// ImpactHalfspace returns oH(v) = {o : S_v(o) >= TopK(v)} as a halfspace
// in option space.
func (iv ImpactVertex) ImpactHalfspace(scorer *topk.Scorer) geom.Halfspace {
	return geom.NewHalfspace(scorer.FullWeight(iv.W), iv.KthScore)
}

// IsTopRanking reports whether placing a new option at o makes it
// top-ranking, i.e. whether o lies in oR. It evaluates the exact
// H-representation, so it works even when the explicit geometry was too
// large to enumerate.
func (r *Result) IsTopRanking(o vec.Vector) bool {
	for _, h := range r.ORConstraints {
		if h.Eval(o) < -geom.Eps {
			return false
		}
	}
	return true
}
