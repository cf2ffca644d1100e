// Package sketch implements the mergeable streaming top-m sketch tier
// of ROADMAP item 5a: a geometric adaptation of filtered space-saving
// (Homem & Carvalho) that answers "is this option plausibly top-k in
// this region?" in microseconds, with deterministic over/under-count
// bounds instead of probabilistic ones.
//
// Classic filtered space-saving monitors m stream items with exact
// counters and summarizes every evicted item by a shared error term.
// Here the "counter" of an option is its coordinate vector — scores are
// linear in the preference, so exact coordinates give exact scores at
// any preference — and the shared error term is a componentwise
// threshold vector: every member ever evicted from the monitored set is
// folded into the threshold by componentwise max. Because scores under
// a valid reduced preference (w >= 0, Σw <= 1) are monotone in the
// coordinates, the threshold's score upper-bounds every unmonitored
// member's score at every preference — the deterministic over-count
// bound everything in this package leans on. The under-count side is
// exact: monitored entries carry exact coordinates.
//
// An engine keeps one sketch over its whole dataset (Plane). Sketches
// over disjoint member sets also merge: Merge is associative and
// commutative — entry-set union plus componentwise threshold max — so
// sketches compose in any order and grouping.
package sketch

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

// DefaultCapacity is the monitored-slot budget of an engine's sketch.
// Its memory is capacity slice headers plus one threshold vector (the
// entry coordinates alias the dataset, so the sketch plane costs
// O(capacity) pointers, not a dataset copy); see docs/APPROX.md for the
// budget arithmetic and how capacity trades against skew.
const DefaultCapacity = 64

// Entry is one monitored option: its dataset slot and exact
// coordinates. P aliases the dataset vector of the generation the
// sketch was built against (snapshots are immutable, so the alias is
// stable for the sketch's lifetime).
type Entry struct {
	Idx int
	P   vec.Vector
}

// Sketch is a filtered-space-saving top-m summary of a set of options.
// The zero value is not usable; build with New and fill with Insert in
// ascending slot order, or obtain one from Merge. A filled sketch is
// immutable by convention (the plane clones before further inserts) and
// safe for concurrent readers.
type Sketch struct {
	d   int
	cap int // monitored-slot budget; 0 = unbounded (merged sketches)

	entries []Entry   // monitored options, ascending Idx
	keys    []float64 // retention key per entry (coordinate sum), aligned with entries

	// thresh componentwise-dominates every folded member; nil until the
	// first eviction. folded counts the members it summarizes.
	thresh vec.Vector
	folded int
}

// New returns an empty sketch over d-dimensional options with the given
// monitored-slot capacity (<= 0 means unbounded).
func New(d, capacity int) *Sketch {
	if capacity < 0 {
		capacity = 0
	}
	return &Sketch{d: d, cap: capacity}
}

// Dim returns the option-space dimensionality.
func (s *Sketch) Dim() int { return s.d }

// Len returns the number of monitored entries.
func (s *Sketch) Len() int { return len(s.entries) }

// Folded returns the number of members summarized only by the
// threshold.
func (s *Sketch) Folded() int { return s.folded }

// Members returns the total number of options the sketch summarizes.
func (s *Sketch) Members() int { return len(s.entries) + s.folded }

// Entries exposes the monitored entries (ascending Idx). Callers must
// not mutate the returned slice.
func (s *Sketch) Entries() []Entry { return s.entries }

// retentionKey orders options for eviction: the coordinate sum, i.e.
// the score under the uniform preference. Any fixed monotone key keeps
// the bounds sound; the sum keeps high-scoring options monitored under
// every preference direction at once.
func retentionKey(p vec.Vector) float64 {
	sum := 0.0
	for _, x := range p {
		sum += x
	}
	return sum
}

// Insert adds option idx with coordinates p. Calls must arrive in
// ascending idx order (the plane rebuilds and patches in slot order),
// which keeps entries sorted without re-sorting. When the monitored set
// is full, the entry with the smallest retention key — the incoming one
// included — is folded into the threshold; ties fold the larger slot,
// so the outcome is deterministic.
func (s *Sketch) Insert(idx int, p vec.Vector) {
	if n := len(s.entries); n > 0 && idx <= s.entries[n-1].Idx {
		panic(fmt.Sprintf("sketch: Insert(%d) out of order after slot %d", idx, s.entries[n-1].Idx))
	}
	key := retentionKey(p)
	if s.cap == 0 || len(s.entries) < s.cap {
		s.entries = append(s.entries, Entry{Idx: idx, P: p})
		s.keys = append(s.keys, key)
		return
	}
	// Full: pick the victim among the monitored entries and the incoming
	// option. The incoming slot is the largest, so "tie folds the larger
	// slot" means a tie with the incoming option folds the incoming one —
	// which the min<= comparison below encodes by defaulting to it.
	victim := -1 // -1 = the incoming option (the largest slot)
	minKey := key
	for i, k := range s.keys {
		if k < minKey || (k == minKey && victim >= 0 && s.entries[i].Idx > s.entries[victim].Idx) {
			minKey = k
			victim = i
		}
	}
	if victim < 0 {
		s.fold(p)
		return
	}
	s.fold(s.entries[victim].P)
	copy(s.entries[victim:], s.entries[victim+1:])
	copy(s.keys[victim:], s.keys[victim+1:])
	s.entries[len(s.entries)-1] = Entry{Idx: idx, P: p}
	s.keys[len(s.keys)-1] = key
}

// fold absorbs a member into the threshold.
func (s *Sketch) fold(p vec.Vector) {
	if s.thresh == nil {
		s.thresh = p.Clone()
	} else {
		for j, x := range p {
			if x > s.thresh[j] {
				s.thresh[j] = x
			}
		}
	}
	s.folded++
}

// clone returns a deep-enough copy for successor-object advances: the
// entry and key slices are copied (entry coordinates still alias the
// dataset) and the threshold is cloned, so inserts into the clone never
// mutate state a pinned reader of the original observes.
func (s *Sketch) clone() *Sketch {
	c := &Sketch{d: s.d, cap: s.cap, folded: s.folded}
	c.entries = append(make([]Entry, 0, len(s.entries)+1), s.entries...)
	c.keys = append(make([]float64, 0, len(s.keys)+1), s.keys...)
	if s.thresh != nil {
		c.thresh = s.thresh.Clone()
	}
	return c
}

// Merge combines two sketches over disjoint member sets of one dataset
// into an unbounded sketch: the union of the monitored entries and the
// componentwise max of the thresholds. Both halves survive unchanged.
// Merge is associative and commutative — MergeAll composes sketches in
// any order or grouping to the same summary.
func Merge(a, b *Sketch) *Sketch {
	if a.d != b.d {
		panic(fmt.Sprintf("sketch: merging dimensions %d and %d", a.d, b.d))
	}
	out := &Sketch{d: a.d, folded: a.folded + b.folded}
	out.entries = make([]Entry, 0, len(a.entries)+len(b.entries))
	out.keys = make([]float64, 0, len(a.keys)+len(b.keys))
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		if a.entries[i].Idx <= b.entries[j].Idx {
			out.entries = append(out.entries, a.entries[i])
			out.keys = append(out.keys, a.keys[i])
			i++
		} else {
			out.entries = append(out.entries, b.entries[j])
			out.keys = append(out.keys, b.keys[j])
			j++
		}
	}
	out.entries = append(out.entries, a.entries[i:]...)
	out.keys = append(out.keys, a.keys[i:]...)
	out.entries = append(out.entries, b.entries[j:]...)
	out.keys = append(out.keys, b.keys[j:]...)
	switch {
	case a.thresh == nil && b.thresh == nil:
	case a.thresh == nil:
		out.thresh = b.thresh.Clone()
	case b.thresh == nil:
		out.thresh = a.thresh.Clone()
	default:
		out.thresh = a.thresh.Clone()
		for j, x := range b.thresh {
			if x > out.thresh[j] {
				out.thresh[j] = x
			}
		}
	}
	return out
}

// MergeAll k-way merges sketches. nil and empty inputs are skipped;
// MergeAll(nil) returns nil.
func MergeAll(ss []*Sketch) *Sketch {
	var out *Sketch
	for _, s := range ss {
		if s == nil {
			continue
		}
		if out == nil {
			// Merge with an empty sketch clones, so the result never
			// aliases an input sketch's mutable slices.
			out = Merge(New(s.d, 0), s)
			continue
		}
		out = Merge(out, s)
	}
	return out
}

// UpperUnmonitored returns the deterministic over-count bound: an upper
// bound on S_w(q) for every member folded into the threshold, under a
// valid reduced preference w. -Inf when nothing was folded (the sketch
// is exact). The bound is the threshold point's own score: scores are
// monotone in the coordinates when w >= 0 and Σw <= 1, and every folded
// member is componentwise below the threshold.
func (s *Sketch) UpperUnmonitored(w vec.Vector) float64 {
	if s.folded == 0 {
		return math.Inf(-1)
	}
	return topk.ScorePoint(w, s.thresh)
}

// scorePool recycles the scratch buffer KthBest sorts in, so warm
// certified-path calls allocate nothing (the same idiom as the topk
// sort pool; CI gates the invariant in pkg/toprr's alloc test).
var scorePool = sync.Pool{New: func() any { s := make([]float64, 0, 256); return &s }}

// KthBest returns the k-th highest exact score among the monitored
// entries at reduced preference w, computed with the scalar scoring
// kernel (topk.ScorePoint) so the value is bit-identical to the exact
// plane's. ok is false when fewer than k entries are monitored.
func (s *Sketch) KthBest(w vec.Vector, k int) (kth float64, ok bool) {
	if k <= 0 || k > len(s.entries) {
		return 0, false
	}
	bufp := scorePool.Get().(*[]float64)
	buf := (*bufp)[:0]
	for i := range s.entries {
		buf = append(buf, topk.ScorePoint(w, s.entries[i].P))
	}
	slices.Sort(buf)
	kth = buf[len(buf)-k]
	*bufp = buf
	scorePool.Put(bufp)
	return kth, true
}

// CountAbove returns the number of monitored entries scoring strictly
// above t at reduced preference w.
func (s *Sketch) CountAbove(w vec.Vector, t float64) int {
	n := 0
	for i := range s.entries {
		if topk.ScorePoint(w, s.entries[i].P) > t {
			n++
		}
	}
	return n
}

// gateEps is the strict r-dominance margin the prefilter gate demands.
// It must be at least the skyband package's dominance tolerance (1e-12)
// for the certificate to imply RDominates; the extra headroom absorbs
// float rounding in the monotone threshold bound, and erring large only
// makes the gate decline more often — the conservative direction.
const gateEps = 1e-9

// CertifySkyband decides whether the monitored set alone is a sound
// input to the r-skyband sweep for a query region with the given
// vertices and rank threshold k. It certifies when at least k monitored
// entries r-dominate the threshold point with margin — then every
// unmonitored member is r-dominated by >= k options and can never
// appear in the r-skyband, so sweeping only the returned slots yields
// the sweep's exact full-dataset output. A sketch that never folded is
// trivially certified (it monitors everything).
func (s *Sketch) CertifySkyband(verts []vec.Vector, k int) (slots []int, ok bool) {
	if s.folded > 0 {
		dominators := 0
		for i := range s.entries {
			margin := math.Inf(1)
			for _, v := range verts {
				m := topk.ScorePoint(v, s.entries[i].P) - topk.ScorePoint(v, s.thresh)
				if m < margin {
					margin = m
				}
			}
			if margin >= gateEps {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			return nil, false
		}
	}
	slots = make([]int, len(s.entries))
	for i := range s.entries {
		slots[i] = s.entries[i].Idx
	}
	return slots, true
}
