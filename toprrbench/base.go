package main

import (
	"fmt"
	"runtime"
	"time"
)

// base is the state every workload runner shares: inputs, op stream,
// samples, the gate's sample, and the traced run's records.
type base struct {
	cfg       *runConfig
	sp        *spec
	in        inputs
	st        *stream
	shards    int // resolved shard count of the engine under test
	lat       [numKinds]samples
	attempted int
	failed    int
	elapsed   time.Duration // the timed phase
	chk       checker

	tr      *tracer // nil in an untraced run
	tracing bool    // the traced half of a traced run has begun
	counts  layerCounts
	untr    samples // traced run: solve latencies of the untraced half
	trSolve samples // and of the traced half
	mem     [2]runtime.MemStats
	memOps  int
	heap    float64
}

func (b *base) state() *base { return b }

// loop runs the timed phase, one op at a time: until the deadline, or
// for maxOps ops when set. A traced run spends its first half untraced,
// for the runtime counters and the tracing overhead, and calls
// startTracing when the traced half begins.
func (b *base) loop(startTracing func() error, do func(op) error) error {
	start := time.Now()
	deadline := start.Add(b.cfg.seconds)
	half := start.Add(b.cfg.seconds / 2)
	runtime.ReadMemStats(&b.mem[0])
	for n := 0; ; n++ {
		now := time.Now()
		if (b.cfg.maxOps > 0 && n >= b.cfg.maxOps) || (b.cfg.maxOps == 0 && !now.Before(deadline)) {
			break
		}
		if b.tr != nil && !b.tracing && ((b.cfg.maxOps > 0 && n >= b.cfg.maxOps/2) || (b.cfg.maxOps == 0 && !now.Before(half))) {
			b.endMemory(n)
			b.tracing = true
			if err := startTracing(); err != nil {
				return err
			}
		}
		if err := do(b.st.next()); err != nil {
			return err
		}
	}
	b.elapsed = time.Since(start)
	if b.tr == nil {
		b.endMemory(b.attempted)
	}
	return nil
}

// endMemory closes the runtime-counter window and takes the live heap
// after a forced collection.
func (b *base) endMemory(ops int) {
	runtime.ReadMemStats(&b.mem[1])
	b.memOps = ops
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.heap = float64(m.HeapAlloc) / (1 << 20)
}

// solveHalf files a traced run's solve latency under the half it ran in.
func (b *base) solveHalf(d time.Duration, traced bool) {
	if traced {
		b.trSolve = append(b.trSolve, d)
	} else {
		b.untr = append(b.untr, d)
	}
}

// report fills the end-to-end metrics of an untraced run, or the
// per-layer metrics every workload shares of a traced one.
func (b *base) report(rep *report) error {
	for k, s := range b.lat {
		if len(s) == 0 {
			continue
		}
		p50, _ := s.quantile(0.5, 0)
		p90, _ := s.quantile(0.9, 0)
		p99, ok := s.quantile(0.99, 10)
		tail := "n/a (fewer than 10 samples beyond it)"
		if ok {
			tail = fmt.Sprintf("%.4f ms", ms(p99))
		}
		rep.note("op %s: %d samples, p50 %.4f ms, p90 %.4f ms, p99 %s", opKind(k), len(s), ms(p50), ms(p90), tail)
	}
	if b.tr == nil {
		for _, p := range []struct {
			name  string
			s     samples
			q     float64
			scale func(time.Duration) float64
			unit  string
		}{
			{"solve_p50_ms", b.lat[kindSolve], 0.5, ms, "ms"},
			{"solve_p90_ms", b.lat[kindSolve], 0.9, ms, "ms"},
			{"approx_p50_us", b.lat[kindApprox], 0.5, us, "us"},
			{"op_p50_ms", b.lat[b.sp.ownOp()], 0.5, ms, "ms"},
		} {
			if err := rep.percentile(p.name, p.s, p.q, p.scale, p.unit); err != nil {
				return err
			}
		}
		rep.put("ops_per_s", float64(b.attempted-b.failed)/b.elapsed.Seconds(), "1/s")
		rep.note("live heap after a forced GC: %.3f MB", b.heap)
		return nil
	}
	if err := overhead(rep, b.untr, b.trSolve); err != nil {
		return err
	}
	// Layers only some workloads cross; the runner that crosses one
	// overwrites its zero.
	for _, m := range []struct{ name, unit string }{
		{"store.replay_s", "s"}, {"http.overhead_ms", "ms"}, {"http.decode_us", "us"}, {"http.resp_kb", "KB"},
	} {
		rep.put(m.name, 0, m.unit)
	}
	b.tr.layerTimes(rep)
	b.counts.put(rep)
	n := float64(max(b.memOps, 1))
	m := b.mem
	rep.put("runtime.alloc_kb_per_op", float64(m[1].TotalAlloc-m[0].TotalAlloc)/1024/n, "KB")
	rep.put("runtime.mallocs_per_op", float64(m[1].Mallocs-m[0].Mallocs)/n, "count")
	rep.put("runtime.gc_per_kop", float64(m[1].NumGC-m[0].NumGC)*1000/n, "count")
	rep.put("runtime.heap_mb", b.heap, "MB")
	return nil
}
