package core

import (
	"sort"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Assembler is the buffered form of the final pipeline stage of a
// TopRR solve: given the collected impact vertices Vall, it produces oR
// per Theorem 1 — the intersection of the option box with the impact
// halfspaces of every vertex. Implementations must be deterministic for
// a given Vall.
//
// A solve itself streams: it opens ClipAssembler's stream (see
// stream.go) and pushes impact vertices as the partition stage confirms
// regions. The buffered Assemble call is bit-identical to that stream
// and serves replay and benchmark harnesses.
type Assembler interface {
	// Name identifies the assembler in stats and logs.
	Name() string
	// Assemble returns the exact H-representation of oR and, when it
	// fits within vertexBudget, its explicit geometry.
	Assemble(scorer *topk.Scorer, vall []ImpactVertex, vertexBudget int) AssembleOutput
}

// AssembleOutput is the result of the assemble stage.
type AssembleOutput struct {
	Constraints []geom.Halfspace // exact H-representation (always set)
	OR          *geom.Polytope   // explicit geometry, nil if over budget
	Clips       int              // halfspaces that actually cut during enumeration
}

// ClipAssembler is the default assembler: incremental halfspace
// clipping of the option box.
//
// It always returns the exact H-representation (box constraints plus
// the deduplicated impact halfspaces). The explicit polytope is built
// by incremental clipping — halfspaces already satisfied by every
// current vertex are skipped, and deeper cuts are applied first so most
// later halfspaces hit that fast path — but with a small preference
// region the impact halfspaces are nearly parallel, and in high
// dimensions their intersection can have intractably many vertices; if
// the enumeration exceeds vertexBudget the polytope is abandoned (nil)
// while the H-representation stays exact.
type ClipAssembler struct{}

// Name implements Assembler.
func (ClipAssembler) Name() string { return "clip" }

// NewStream opens a streaming assembly for one solve.
func (ClipAssembler) NewStream(scorer *topk.Scorer, vertexBudget int) AssembleStream {
	return &clipStream{set: impactSet{scorer: scorer}, budget: vertexBudget}
}

// Assemble implements Assembler. It is the buffered equivalent of the
// streaming path: push everything, finish once.
func (a ClipAssembler) Assemble(scorer *topk.Scorer, vall []ImpactVertex, vertexBudget int) AssembleOutput {
	st := a.NewStream(scorer, vertexBudget)
	for _, iv := range vall {
		st.Push(iv)
	}
	return st.Finish()
}

// optionBox returns the [0,1]^d option-space box.
func optionBox(d int) *geom.Polytope {
	lo, hi := vec.New(d), vec.New(d)
	for j := range hi {
		hi[j] = 1
	}
	return geom.NewBox(lo, hi)
}

// dedupImpact deduplicates the impact halfspaces of Vall on a quantized
// grid and orders them deepest-cut first (higher threshold binds more
// of the box), with a deterministic tie-break so runs are reproducible.
// Identity is the composite uint64 hash of the quantized halfspace —
// no per-vertex clone or string key is ever built. Both assemblers and
// the streaming path share this dedup, so their constraint lists are
// identical.
func dedupImpact(scorer *topk.Scorer, vall []ImpactVertex) []geom.Halfspace {
	set := impactSet{scorer: scorer}
	for _, iv := range vall {
		set.add(iv)
	}
	return set.sorted()
}

// clipFold runs the sequential incremental clip of impact against box
// inside an arena-backed geom.Fold: the explicit polytope (nil when the
// enumeration exceeds vertexBudget) and the number of halfspaces that
// actually cut.
func clipFold(box *geom.Polytope, impact []geom.Halfspace, vertexBudget int) (or *geom.Polytope, clips int) {
	f := geom.NewFold(box)
	defer f.Release()
	for _, h := range impact {
		if f.Clip(h) {
			clips++
		}
		if f.Current().NumVertices() > vertexBudget {
			return nil, clips
		}
	}
	return f.Detach(), clips
}

// sortedVall returns Vall in a deterministic order: lexicographic over
// the quantized vertex coordinates, independent of map iteration and of
// the order workers confirmed regions in.
func (s *solver) sortedVall() []ImpactVertex {
	out := make([]ImpactVertex, 0, len(s.vall))
	for _, iv := range s.vall {
		out = append(out, iv)
	}
	sort.Slice(out, func(i, j int) bool {
		return lexLessQ(out[i].W, out[j].W, vallQuantum)
	})
	return out
}
