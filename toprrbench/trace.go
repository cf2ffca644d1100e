package main

// The traced run: spans recorded around the benchmark's own calls into
// each layer's exported functions, and the replays that give a layer its
// own span. Nothing inside the program is instrumented. A replay re-runs
// one layer's call on the same pinned snapshot and inputs right after
// the timed op and is recorded as a child of the op's span, so the op's
// self time is what remains after the replayed layers.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toprr/internal/sketch"
	"toprr/internal/skyband"
	"toprr/internal/store"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// span is one recorded interval. Spans of one op share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	gatePlane *sketch.Plane // gate-replay plane of generation planeGen
	planeGen  toprr.Generation
	shards    int
	bare      *store.Store // ingest: the store-layer replay target
	cold      int          // scoreCold calls so far
}

func newTracer(shards int) *tracer {
	return &tracer{t0: time.Now(), shards: shards}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent.
func (t *tracer) timed(parent, req uint64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(t.newID(), parent, req, name, start, end)
	return end.Sub(start)
}

// selfTimes returns every span name's self times: duration minus the
// durations of its children.
func (t *tracer) selfTimes() map[string][]time.Duration {
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-child[s.ID]))
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// plane returns a sketch plane built from the snapshot, as the engine
// builds its own, for replaying the prefilter gate.
func (t *tracer) plane(snap toprr.Snapshot) *sketch.Plane {
	if t.gatePlane == nil || t.planeGen != snap.Gen {
		t.gatePlane, t.planeGen = sketch.NewPlane(snap.Scorer, t.shards, 0), snap.Gen
	}
	return t.gatePlane
}

// replaySolve re-runs a solve's prefilter and assembly under the solve's
// span: the sketch gate, then the r-skyband sweep over the gate's
// candidates when it certifies or over the whole dataset when it
// declines (what the engine's prefilter does), then the resolved
// assembler over the result's Vall. It also times a cold top-k at the
// region's first vertex.
func (t *tracer) replaySolve(parent, req uint64, snap toprr.Snapshot, q toprr.Query, res *toprr.Result) {
	verts := q.WR.VertexPoints()
	pts := snap.Scorer.Points()
	var (
		cands []int
		ok    bool
	)
	pl := t.plane(snap)
	t.timed(parent, req, "sketch.gate", func() { cands, _, ok = pl.Gate(snap.Scorer, verts, q.K) })
	t.timed(parent, req, "skyband.sweep", func() {
		rd := skyband.NewRDomVerts(verts)
		if ok {
			skyband.RSkybandSubset(pts, cands, q.K, rd)
		} else {
			skyband.RSkyband(pts, q.K, rd)
		}
	})
	t.timed(parent, req, "geom.assemble", func() { assemblerFor(t.shards).Assemble(snap.Scorer, res.Vall, orVertexBudget) })
	t.scoreCold(req, snap, verts[0], q.K)
}

// replayApply re-applies an Apply batch to the bare store under the
// Apply's span.
func (t *tracer) replayApply(parent, req uint64, ops []toprr.Op) error {
	var err error
	t.timed(parent, req, "store.apply", func() { _, _, err = t.bare.Apply(ops) })
	return err
}

// openBare opens the bare store the store-layer replay applies to: the
// engine's current points in a fresh directory, with the engine's WAL
// sync mode and shard count.
func (t *tracer) openBare(dir string, snap toprr.Snapshot) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(store.PersistConfig{Dir: dir, Sync: walSync, Shards: t.shards}, snap.Scorer.Points())
	if err != nil {
		return fmt.Errorf("bare store: %w", err)
	}
	t.bare = st
	return nil
}

// close releases the bare store.
func (t *tracer) close() error {
	if t.bare == nil {
		return nil
	}
	return t.bare.Close()
}

// assemblerFor is the assembler an engine with this shard count
// resolves for its solves.
func assemblerFor(shards int) toprr.Assembler {
	if shards > 1 {
		return toprr.ParallelClipAssembler{Shards: shards}
	}
	return toprr.ClipAssembler{}
}

// coldEvery replays a cold top-k for one call of scoreCold in this
// many. A cold scan of the http market's 50000 options takes about
// 15 ms, so replaying one per request made the traced http run last
// eight times its window.
const coldEvery = 8

// scoreCold times an uncached top-k scan at one preference, for every
// coldEvery-th call.
func (t *tracer) scoreCold(req uint64, snap toprr.Snapshot, w vec.Vector, k int) {
	t.cold++
	if t.cold%coldEvery != 1 {
		return
	}
	t.timed(req, req, "topk.score_cold", func() { snap.Scorer.TopK(w, k, nil) })
}

// layerTimes turns span self times into the per-layer timing metrics.
func (t *tracer) layerTimes(rep *report) {
	self := t.selfTimes()
	med := func(name string) time.Duration { return medianDur(self[name]) }
	rep.put("skyband.sweep_ms", ms(med("skyband.sweep")), "ms")
	rep.put("sketch.gate_us", us(med("sketch.gate")), "us")
	rep.put("topk.score_cold_ms", ms(med("topk.score_cold")), "ms")
	rep.put("core.partition_ms", ms(med("engine.solve")), "ms")
	rep.put("geom.assemble_ms", ms(med("geom.assemble")), "ms")
	rep.put("store.apply_ms", ms(med("store.apply")), "ms")
	rep.put("engine.advance_ms", ms(med("engine.apply")), "ms")
	rep.note("spans recorded: %d", len(t.spans))
}

// overhead reports the traced run's cost: traced solve p50 over the
// untraced p50 of the same invocation, minus one.
func overhead(rep *report, untraced, traced samples) error {
	u, ok1 := untraced.quantile(0.5, 0)
	tr, ok2 := traced.quantile(0.5, 0)
	if !ok1 || !ok2 || u == 0 {
		return fmt.Errorf("trace overhead: no solves in one of the halves")
	}
	rep.put("trace.overhead_frac", float64(tr)/float64(u)-1, "ratio")
	return nil
}

// orVertexBudget is the solver's default Options.ORVertexBudget, which
// engine solves run with.
const orVertexBudget = 5000
