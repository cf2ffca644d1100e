package main

// The in-process workloads (dashboard, deep, ingest): a closed loop with
// one client calling pkg/toprr.Engine.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"toprr/pkg/toprr"
)

type inproc struct {
	base
	eng    *toprr.Engine
	opts   []toprr.EngineOption
	solved []*toprr.Result // latest solved region of every pooled query
	place  int             // place ops so far; they cycle through solved
	replay []time.Duration // ingest: reopen with WAL replay, per set-up

	c0 engineCounters
}

func (w *inproc) close() {
	if w.eng != nil {
		if err := w.eng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "toprrbench: close engine:", err)
		}
		w.eng = nil
	}
}

// setup builds the workload from nothing: inputs from the seed, engine
// open (ingest: warm-up Apply batches, then Close and a reopen that
// replays the WAL), and a warm-up pass over every pooled query and
// preference so the caches are full before timing starts.
func (w *inproc) setup(ctx context.Context, i int) (time.Duration, error) {
	w.close()
	var dir string
	w.opts = nil
	if w.sp.durable {
		dir = filepath.Join(w.cfg.work, fmt.Sprintf("%s-%d", w.sp.name, i))
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		w.opts = append(w.opts, toprr.WithPersistenceConfig(toprr.PersistConfig{Dir: dir, Sync: walSync}))
	}
	start := time.Now()
	w.in = genInputs(w.sp, w.cfg.seed)
	w.st = newStream(w.sp, w.cfg.seed, len(w.in.queries), len(w.in.prefs))
	eng, err := toprr.OpenEngine(w.in.pts, w.opts...)
	if err != nil {
		return 0, fmt.Errorf("open engine: %w", err)
	}
	if w.sp.durable {
		for b := 0; b < w.sp.warmBatch; b++ {
			o := op{kind: kindApply, mutates: w.st.nextBatch()}
			w.st.fold(o)
			if _, err := eng.Apply(ctx, o.mutates); err != nil {
				eng.Close()
				return 0, fmt.Errorf("warm-up apply: %w", err)
			}
		}
		if err := eng.Close(); err != nil {
			return 0, fmt.Errorf("close before reopen: %w", err)
		}
		t := time.Now()
		if eng, err = toprr.OpenEngine(nil, w.opts...); err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		w.replay = append(w.replay, time.Since(t))
	}
	w.eng = eng
	w.shards = eng.Shards()
	w.solved = make([]*toprr.Result, len(w.in.queries))
	for i, q := range w.in.queries {
		res, err := eng.SolveAt(ctx, eng.Snapshot(), q.q)
		if err != nil {
			return 0, fmt.Errorf("warm-up solve: %w", err)
		}
		w.solved[i] = res
	}
	for _, p := range w.in.prefs {
		if w.sp.mix[kindRank] > 0 {
			if _, err := eng.Rank(p.w, p.k); err != nil {
				return 0, fmt.Errorf("warm-up rank: %w", err)
			}
		}
		if _, err := eng.ApproxRank(p.w, p.k); err != nil {
			return 0, fmt.Errorf("warm-up approx: %w", err)
		}
	}
	return time.Since(start), nil
}

// measure runs the timed phase (base.loop).
func (w *inproc) measure(ctx context.Context) error {
	return w.loop(w.startTracing, func(o op) error { return w.do(ctx, o) })
}

func (w *inproc) startTracing() error {
	w.c0 = readEngine(w.eng)
	if w.sp.durable {
		return w.tr.openBare(filepath.Join(w.cfg.work, w.sp.name+"-bare"), w.eng.Snapshot())
	}
	return nil
}

// do runs one op: the engine call is timed; snapshots for the gate and
// the traced replays are taken outside it.
func (w *inproc) do(ctx context.Context, o op) error {
	keep := w.chk.want(o.kind)
	traced := w.tracing
	var req, call uint64
	var reqStart time.Time
	if traced {
		req, call = w.tr.newID(), w.tr.newID()
		reqStart = time.Now()
	}
	var snap toprr.Snapshot
	if (keep || traced) && o.kind != kindSolve {
		snap = w.eng.Snapshot()
	}
	var (
		err   error
		res   *toprr.Result
		rank  []int
		est   toprr.Estimate
		place []float64
		q     toprr.Query
		p     pref
	)
	start := time.Now()
	switch o.kind {
	case kindSolve:
		q = w.in.queries[o.query].q
		snap = w.eng.Snapshot()
		res, err = w.eng.SolveAt(ctx, snap, q)
	case kindRank:
		p = w.in.prefs[o.pref]
		rank, err = w.eng.Rank(p.w, p.k)
	case kindApprox:
		p = w.in.prefs[o.pref]
		est, err = w.eng.ApproxRank(p.w, p.k)
	case kindPlace:
		res = w.solved[w.place%len(w.solved)]
		w.place++
		place, err = res.CostOptimalNew()
	case kindApply:
		_, err = w.eng.Apply(ctx, o.mutates)
	}
	end := time.Now()
	w.attempted++
	if err != nil {
		w.failed++
		fmt.Fprintf(os.Stderr, "toprrbench: %s: %v\n", o.kind, err)
		return nil
	}
	w.lat[o.kind] = append(w.lat[o.kind], end.Sub(start))
	if o.kind == kindSolve {
		w.solved[o.query] = res
		if w.tr != nil {
			w.solveHalf(end.Sub(start), traced)
		}
	}
	if keep {
		switch o.kind {
		case kindSolve:
			w.chk.keep(kept{kind: o.kind, pts: snap.Scorer.Points(), q: q, cons: res.ORConstraints})
		case kindRank:
			w.chk.keep(kept{kind: o.kind, pts: snap.Scorer.Points(), w: p.w, k: p.k, rank: rank})
		case kindApprox:
			w.chk.keep(kept{kind: o.kind, pts: snap.Scorer.Points(), w: p.w, k: p.k, lo: est.Lo, hi: est.Hi})
		case kindPlace:
			w.chk.keep(kept{kind: o.kind, place: place, res: res})
		}
	}
	if !traced {
		return nil
	}
	w.tr.add(call, req, req, "engine."+o.kind.String(), start, end)
	switch o.kind {
	case kindSolve:
		w.tr.replaySolve(call, req, snap, q, res)
		w.counts.solves++
		w.counts.solve.add(readSolve(res))
	case kindRank, kindApprox:
		w.tr.scoreCold(req, snap, p.w, p.k)
	case kindPlace:
		w.counts.places++
		w.counts.placeCons += len(res.ORConstraints)
	case kindApply:
		if err := w.tr.replayApply(call, req, o.mutates); err != nil {
			return fmt.Errorf("store replay: %w", err)
		}
		w.counts.applies++
		w.counts.appliedOps += len(o.mutates)
		w.counts.liveGensMax = max(w.counts.liveGensMax, readEngine(w.eng).LiveGenerations)
	}
	w.tr.add(req, 0, req, "op."+o.kind.String(), reqStart, time.Now())
	return nil
}

// finish runs the correctness gate and, for ingest, the durability
// check.
func (w *inproc) finish(ctx context.Context) []string {
	if w.tr != nil {
		w.counts.engine = readEngine(w.eng).sub(w.c0)
	}
	bad := w.chk.run(ctx)
	if w.sp.durable {
		if err := w.checkDurable(); err != nil {
			bad = append(bad, "durability: "+err.Error())
		}
	}
	return bad
}

// checkDurable closes the engine and reopens its data directory: every
// acknowledged Apply must come back, at the same generation, with the
// same options.
func (w *inproc) checkDurable() error {
	before := w.eng.Snapshot()
	if err := w.eng.Close(); err != nil {
		w.eng = nil
		return fmt.Errorf("close: %w", err)
	}
	eng, err := toprr.OpenEngine(nil, w.opts...)
	w.eng = eng
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	after := eng.Snapshot()
	if after.Gen != before.Gen || after.Scorer.Len() != before.Scorer.Len() {
		return fmt.Errorf("reopened at generation %d with %d options, closed at %d with %d",
			after.Gen, after.Scorer.Len(), before.Gen, before.Scorer.Len())
	}
	for i := 0; i < after.Scorer.Len(); i++ {
		if !equalFloats(after.Scorer.Point(i), before.Scorer.Point(i)) {
			return fmt.Errorf("option %d differs after reopen", i)
		}
	}
	return nil
}

func equalFloats(a, b []float64) bool {
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

// report adds the in-process traced run's own metrics to the shared
// ones.
func (w *inproc) report(rep *report) error {
	if err := w.base.report(rep); err != nil || w.tr == nil {
		return err
	}
	rep.put("store.replay_s", medianDur(w.replay).Seconds(), "s")
	return nil
}
