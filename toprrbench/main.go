// Command toprrbench is the repository's benchmark: one seeded command
// that drives a workload through the public surfaces (pkg/toprr.Engine
// in-process, or a child toprrd over loopback), checks every sampled
// answer, and prints its metrics by name and unit. Run it through
// run.sh from the repository root, which builds it and toprrd first:
//
//	bash toprrbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it, each
// starting with "#", are the environment header. A wrong answer makes
// the command exit 1, an error that leaves no result exits 2.
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// runConfig is one invocation's settings.
type runConfig struct {
	sp      *spec
	seed    int64
	seconds time.Duration
	maxOps  int // > 0: a fixed number of timed ops instead of a time window (self-test)
	trace   bool
	setups  int
	work    string // scratch directory inside the checkout
	toprrd  string // toprrd binary (http workload)
}

// workload runs one workload.
type workload interface {
	setup(ctx context.Context, i int) (time.Duration, error)
	measure(ctx context.Context) error
	finish(ctx context.Context) []string // the correctness gate and the traced replays
	report(rep *report) error
	close()
	state() *base
}

// outcome is one run's result.
type outcome struct {
	rep               *report
	attempted, failed int
	wrong             []string
	opsHash           uint64 // digest of every op issued, set-up included
	determined        [4]int // traced runs: output-determined counters
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: dashboard, deep, ingest or http")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		work    = flag.String("work", filepath.Join(".bench_build", "toprrbench", "work"), "scratch directory")
		toprrd  = flag.String("toprrd", filepath.Join(".bench_build", "toprrbench", "toprrd"), "toprrd binary for the http workload")
	)
	flag.Parse()
	sp, err := findSpec(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "toprrbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := &runConfig{sp: sp, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, setups: setups, work: filepath.Join(*work, fmt.Sprintf("%s-%d", sp.name, os.Getpid())), toprrd: *toprrd}
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		if out != nil {
			for _, line := range out.rep.header {
				fmt.Fprintln(os.Stderr, "#", line)
			}
		}
		fmt.Fprintln(os.Stderr, "toprrbench:", err)
		return 2
	}
	for _, line := range out.rep.header {
		fmt.Println("#", line)
	}
	for _, w := range out.wrong {
		fmt.Fprintln(os.Stderr, "toprrbench: WRONG ANSWER:", w)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.wrong) == 0, out.attempted, out.failed, out.rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "toprrbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if len(out.wrong) > 0 {
		return 1
	}
	return 0
}

// runWorkload sets the workload up cfg.setups times (keeping the last),
// measures, checks, and reports.
func runWorkload(ctx context.Context, cfg *runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	var w workload
	if cfg.sp.daemon {
		w = newHTTP(cfg)
	} else {
		w = &inproc{base: base{cfg: cfg, sp: cfg.sp}}
	}
	defer w.close()
	b := w.state()

	rep := newReport()
	envHeader(rep, cfg)
	var setupTimes []time.Duration
	for i := 0; i < cfg.setups; i++ {
		d, err := w.setup(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.sp.name, err)
		}
		setupTimes = append(setupTimes, d)
	}
	rep.note("set-ups: %d, seconds each: %v", len(setupTimes), setupTimes)
	rep.note("shards: %d", b.shards)
	if cfg.trace {
		b.tr = newTracer(b.shards)
		defer b.tr.close()
	}
	if err := w.measure(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.sp.name, err)
	}
	out := &outcome{rep: rep, wrong: w.finish(ctx)}
	if err := w.report(rep); err != nil {
		return out, fmt.Errorf("%s: %w", cfg.sp.name, err)
	}
	out.attempted, out.failed, out.opsHash = b.attempted, b.failed, b.st.hash
	if cfg.trace {
		out.determined = b.counts.determined()
		path, err := b.tr.write(filepath.Join(filepath.Dir(filepath.Dir(cfg.work)), "traces"),
			fmt.Sprintf("%s-seed%d.jsonl", cfg.sp.name, cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.note("spans written to %s", path)
	} else {
		rep.put("setup_s", medianDur(setupTimes).Seconds(), "s")
	}
	checked := 0
	for _, n := range b.chk.count {
		checked += n
	}
	rep.note("checked answers: %d, wrong: %d, failed ops: %d of %d", checked, len(out.wrong), out.failed, out.attempted)
	return out, nil
}

// envHeader records what the numbers depend on.
func envHeader(rep *report, cfg *runConfig) {
	rep.note("workload: %s (seed %d, %v timed, trace %v)", cfg.sp.name, cfg.seed, cfg.seconds, cfg.trace)
	rep.note("go: %s, GOMAXPROCS: %d, nproc: %d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep.note("dataset: %s n=%d d=%d", cfg.sp.dist, cfg.sp.n, cfg.sp.d)
	if cfg.sp.durable {
		rep.note("wal sync: %v (WAL appended on every Apply, flushing left to the OS), data dir filesystem: %s", walSync, fsType(cfg.work))
	} else {
		rep.note("wal sync: none (in-memory engine)")
	}
	if cfg.sp.daemon {
		rep.note("http: closed loop over one keep-alive connection (no offered rate)")
	}
}
