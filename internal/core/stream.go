package core

// Streaming assembly: the partition stage pushes impact vertices into
// the assembler as regions are confirmed, instead of buffering the
// whole Vall slice and handing it over at the end. The stream
// deduplicates impact halfspaces on arrival under quantized uint64
// hashes, so by the time the partition finishes, the assemble stage
// only has the (far smaller) unique constraint set left to sort and
// fold.
//
// Exactness contract: a streaming assembly is bit-identical to the
// buffered Assemble call over the same vertex set, regardless of
// arrival order. Dedup and the deepest-cut sort are arrival-order
// independent by construction — when several vertices quantize to the
// same impact halfspace, the representative kept is the one the
// buffered path (which walks Vall in sorted order) would keep: the
// vertex with the lexicographically smallest quantized weight vector.

import (
	"math"
	"sort"
	"sync"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// impactQuantum is the grid on which impact halfspaces are
// deduplicated; it matches the historical string-key quantum.
const impactQuantum = 1e-9

// vallQuantum is the grid on which Vall vertices are deduplicated and
// ordered.
const vallQuantum = 1e-10

// AssembleStream is an in-progress streaming assembly, opened by the
// assemblers' NewStream for one solve. It accepts Push from multiple
// goroutines and is finalized by a single Finish call.
type AssembleStream interface {
	// Push feeds one impact vertex. Duplicate impact halfspaces (on the
	// quantized grid) are absorbed. Safe for concurrent use.
	Push(iv ImpactVertex)
	// Finish completes the assembly and returns the output. It must be
	// called exactly once, after every Push has returned.
	Finish() AssembleOutput
}

// lexLessQ orders vectors by their quantized coordinates,
// lexicographically. It is the allocation-free replacement for
// comparing quantized string keys.
func lexLessQ(a, b vec.Vector, quantum float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for t := 0; t < n; t++ {
		qa := int64(math.Round(a[t] / quantum))
		qb := int64(math.Round(b[t] / quantum))
		if qa != qb {
			return qa < qb
		}
	}
	return len(a) < len(b)
}

// lexLessStrict is lexLessQ with quantized ties broken by the raw
// coordinates, so any two distinct vectors have a strict order. The
// dedup representative rule needs this: the solver's Vall vertices are
// unique on the quantized grid, but Push accepts arbitrary vertices and
// must stay arrival-order independent even for sub-quantum twins.
func lexLessStrict(a, b vec.Vector, quantum float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for t := 0; t < n; t++ {
		qa := int64(math.Round(a[t] / quantum))
		qb := int64(math.Round(b[t] / quantum))
		if qa != qb {
			return qa < qb
		}
	}
	for t := 0; t < n; t++ {
		if a[t] != b[t] {
			return a[t] < b[t]
		}
	}
	return len(a) < len(b)
}

// impactEntry is one unique impact halfspace with the vertex that
// contributed it (the representative used for order-independent dedup).
type impactEntry struct {
	h geom.Halfspace
	w vec.Vector
}

// impactSet accumulates deduplicated impact halfspaces under quantized
// uint64 composite hashes (coefficients and threshold). Not
// goroutine-safe; clipStream serializes access.
type impactSet struct {
	scorer *topk.Scorer
	idx    map[uint64]int32 // composite hash -> index into list; made on first add
	list   []impactEntry
}

// add absorbs one vertex's impact halfspace. No per-vertex clone, no
// string key: the identity is a 64-bit FNV-1a digest of the quantized
// coefficients folded with the quantized threshold (collisions merge
// two constraints with probability ~2^-64 per pair — consciously
// accepted). On a duplicate, the representative with the smaller
// quantized vertex wins, making the kept halfspace independent of
// arrival order.
func (s *impactSet) add(iv ImpactVertex) {
	// The identity is computed without materializing the halfspace: its
	// coefficient vector is FullWeight(W) — W with the derived last
	// weight appended — so its digest extends W's digest by one fold,
	// and the threshold is the vertex's k-th score. The halfspace itself
	// is only built when the entry is (re)inserted.
	key := vec.HashFold(iv.W.Hash(impactQuantum), 1-iv.W.Sum(), impactQuantum)
	key = vec.HashFold(key, iv.KthScore, impactQuantum)
	if i, ok := s.idx[key]; ok {
		if lexLessStrict(iv.W, s.list[i].w, vallQuantum) {
			s.list[i] = impactEntry{h: iv.ImpactHalfspace(s.scorer), w: iv.W}
		}
		return
	}
	if s.idx == nil {
		s.idx = make(map[uint64]int32)
	}
	s.idx[key] = int32(len(s.list))
	s.list = append(s.list, impactEntry{h: iv.ImpactHalfspace(s.scorer), w: iv.W})
}

// sorted returns the unique impact halfspaces deepest-cut first (B
// descending; ties broken by the quantized coefficients so runs are
// reproducible). It reorders the internal list, so no add may follow.
func (s *impactSet) sorted() []geom.Halfspace {
	sort.Slice(s.list, func(i, j int) bool {
		if s.list[i].h.B != s.list[j].h.B {
			return s.list[i].h.B > s.list[j].h.B
		}
		return lexLessQ(s.list[i].h.A, s.list[j].h.A, impactQuantum)
	})
	out := make([]geom.Halfspace, len(s.list))
	for i, e := range s.list {
		out[i] = e.h
	}
	return out
}

// clipStream is ClipAssembler's streaming state.
type clipStream struct {
	mu     sync.Mutex
	set    impactSet
	budget int
}

// Push implements AssembleStream.
func (st *clipStream) Push(iv ImpactVertex) {
	st.mu.Lock()
	st.set.add(iv)
	st.mu.Unlock()
}

// Finish implements AssembleStream: box constraints plus the
// deduplicated, deepest-cut-first impact halfspaces, folded by clipFold.
// Both Assemble (buffered) and the solve's stream end here, which is
// what makes the two paths bit-identical by construction.
func (st *clipStream) Finish() AssembleOutput {
	st.mu.Lock()
	impact := st.set.sorted()
	d := st.set.scorer.Dim()
	budget := st.budget
	st.mu.Unlock()
	box := optionBox(d)
	out := AssembleOutput{
		Constraints: append(append(make([]geom.Halfspace, 0, len(box.HS)+len(impact)), box.HS...), impact...),
	}
	out.OR, out.Clips = clipFold(box, impact, budget)
	return out
}
