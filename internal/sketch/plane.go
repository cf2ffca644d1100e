package sketch

import (
	"sync"
	"sync/atomic"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Plane is an engine's sketch tier: one Sketch over the whole dataset,
// maintained on the mutation stream. It follows the patch plane's
// successor-object discipline — an advance replaces the sketch with a
// fresh object and leaves the previous one untouched, so a reader still
// holding it keeps a consistent view of its generation. Like the top-k
// registry, the plane serves only its current generation: requests
// carrying any other generation's scorer are declined and the caller
// takes the exact path.
type Plane struct {
	cap int

	mu     sync.RWMutex
	scorer *topk.Scorer // the generation the sketch summarizes
	sk     *Sketch

	// Cumulative counters (atomic: bumped under read locks).
	gateHits atomic.Int64 // prefilter gates served with a certificate
	gateMiss atomic.Int64 // gates declined (stale generation or no certificate)
	skipped  atomic.Int64 // options certified out of prefilter sweeps, cumulative
}

// NewPlane builds the sketch tier for a dataset snapshot: it scans the
// scorer once and streams every option into a sketch with capacity
// monitored slots (<= 0 selects DefaultCapacity). The shards argument
// is ignored; it is kept only because the toprrbench module compiles
// against this signature.
func NewPlane(sc *topk.Scorer, shards, capacity int) *Plane {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Plane{cap: capacity, scorer: sc, sk: buildSketch(sc, capacity)}
}

// buildSketch streams the scorer's options into a new sketch in slot order.
func buildSketch(sc *topk.Scorer, capacity int) *Sketch {
	sk := New(sc.Dim(), capacity)
	for i := 0; i < sc.Len(); i++ {
		sk.Insert(i, sc.Point(i))
	}
	return sk
}

// AdvanceInsert moves the plane to a pure-insert generation: the
// successor sketch is a clone with the tail inserts applied, in the
// same slot order a rebuild would use, so it equals a from-scratch
// build. inserted must list the new tail slots in ascending order —
// store.Delta.Inserted's contract.
func (pl *Plane) AdvanceInsert(sc *topk.Scorer, inserted []int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	next := pl.sk.clone()
	for _, idx := range inserted {
		next.Insert(idx, sc.Point(idx))
	}
	pl.scorer = sc
	pl.sk = next
}

// Advance moves the plane past a reshape batch by rebuilding the sketch
// from the new snapshot: space-saving summaries don't support deletion.
func (pl *Plane) Advance(sc *topk.Scorer) {
	next := buildSketch(sc, pl.cap)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.scorer = sc
	pl.sk = next
}

// For returns the sketch when the plane's current generation matches
// sc; nil for any other generation (the caller falls back to the exact
// plane, exactly like a stale Registry.GetFor).
func (pl *Plane) For(sc *topk.Scorer) *Sketch {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	if pl.scorer != sc {
		return nil
	}
	return pl.sk
}

// Gate is the prefilter hook (core.Options.SketchGate): it certifies,
// from the sketch, that every option outside the monitored set
// is r-dominated by at least k options over the query region, and then
// hands the prefilter the monitored slots as the only candidates the
// exact sweep must process. ok is false — and the solve runs the full
// ungated sweep — when the plane serves a different generation or the
// certificate doesn't hold; a gated solve is bit-identical to an
// ungated one either way.
func (pl *Plane) Gate(sc *topk.Scorer, verts []vec.Vector, k int) (cands []int, skipped int, ok bool) {
	m := pl.For(sc)
	if m == nil {
		pl.gateMiss.Add(1)
		return nil, 0, false
	}
	cands, ok = m.CertifySkyband(verts, k)
	if !ok {
		pl.gateMiss.Add(1)
		return nil, 0, false
	}
	skipped = sc.Len() - len(cands)
	pl.gateHits.Add(1)
	pl.skipped.Add(int64(skipped))
	return cands, skipped, true
}

// PlaneStats is a snapshot of the sketch tier's occupancy and counters.
type PlaneStats struct {
	Entries int // monitored entries
	Folded  int // members summarized only by thresholds

	GateHits       int // prefilter gates served with a certificate
	GateMisses     int // gates declined (stale generation or no certificate)
	CertifiedSkips int // options certified out of prefilter sweeps, cumulative
}

// Stats snapshots the plane.
func (pl *Plane) Stats() PlaneStats {
	pl.mu.RLock()
	sk := pl.sk
	pl.mu.RUnlock()
	return PlaneStats{
		Entries:        sk.Len(),
		Folded:         sk.Folded(),
		GateHits:       int(pl.gateHits.Load()),
		GateMisses:     int(pl.gateMiss.Load()),
		CertifiedSkips: int(pl.skipped.Load()),
	}
}
