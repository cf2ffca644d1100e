// Command benchrunner regenerates the tables and figures of the paper's
// evaluation (Section 6). Each experiment prints rows mirroring the
// series the paper plots; -list catalogues them, and README.md's
// "Running things" section shows typical runs. Alongside the human-readable tables, each experiment
// writes a machine-readable BENCH_<id>.json (wall time, regions
// processed, LP/QP call counts, and the table cells) so the performance
// trajectory can be tracked across changes.
//
// Usage:
//
//	benchrunner -exp all                  # everything, default scale
//	benchrunner -exp fig9a,fig13          # selected experiments
//	benchrunner -exp fig9c -scale 1 -queries 50   # paper-scale run
//	benchrunner -exp fig9a -jsondir ./out # JSON records to ./out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"toprr/internal/bench"
	"toprr/pkg/toprr"
)

// record is the machine-readable result of one experiment run.
// AllocBytes and Mallocs are runtime.MemStats deltas (TotalAlloc and
// Mallocs, both monotone) across the run, so the memory trajectory is
// tracked next to the wall-clock one. GoVersion and GOMAXPROCS pin the
// environment the record was captured under, so trajectories from
// different toolchains or core counts are not confused for code
// regressions.
type record struct {
	ID               string    `json:"id"`
	Caption          string    `json:"caption"`
	Scale            float64   `json:"scale"`
	Queries          int       `json:"queries"`
	GoVersion        string    `json:"go_version"`
	GOMAXPROCS       int       `json:"gomaxprocs"`
	WallSeconds      float64   `json:"wall_seconds"`
	RegionsProcessed int64     `json:"regions_processed"`
	LPCalls          int64     `json:"lp_calls"`
	QPCalls          int64     `json:"qp_calls"`
	AllocBytes       uint64    `json:"alloc_bytes"`
	Mallocs          uint64    `json:"mallocs"`
	Tables           []tableJS `json:"tables"`
}

type tableJS struct {
	ID      string     `json:"id"`
	Caption string     `json:"caption"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
}

func writeRecord(dir string, r record) error {
	f, err := os.Create(filepath.Join(dir, "BENCH_"+r.ID+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() { os.Exit(run()) }

// run is main's body; it returns the exit code so the profile-flushing
// defers installed for -cpuprofile/-memprofile run before the process
// exits (os.Exit would skip them).
func run() int {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids, or 'all' (see -list)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.Float64("scale", bench.DefaultScale.N, "dataset-size multiplier (1 = paper scale)")
		queries = flag.Int("queries", bench.DefaultScale.Queries, "wR regions averaged per data point (paper: 50)")
		budget  = flag.Int("maxregions", bench.DefaultScale.MaxRegions, "per-query recursion budget (0 = solver default)")
		timeout = flag.Duration("timeout", bench.DefaultScale.Timeout, "per-query wall-clock budget (0 = unlimited)")
		jsonDir = flag.String("jsondir", ".", "directory for BENCH_<id>.json records ('' = disable)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Caption)
		}
		return 0
	}

	s := bench.Scale{N: *scale, Queries: *queries, MaxRegions: *budget, Timeout: *timeout}
	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
			}
		}()
	}

	fmt.Printf("# TopRR experiment runner — scale=%.3g queries=%d timeout=%v\n\n", s.N, s.Queries, s.Timeout)
	for _, e := range selected {
		start := time.Now()
		before := toprr.ReadCounters()
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		tables := e.Run(s)
		runtime.ReadMemStats(&msAfter)
		delta := toprr.ReadCounters().Sub(before)
		wall := time.Since(start)

		for _, table := range tables {
			fmt.Println(table.String())
		}
		fmt.Printf("(%s finished in %.1fs; %d regions, %d LP calls, %d QP calls, %.1f MB allocated)\n\n",
			e.ID, wall.Seconds(), delta.RegionsProcessed, delta.LPSolves, delta.QPSolves,
			float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/(1<<20))

		r := record{
			ID:               e.ID,
			Caption:          e.Caption,
			Scale:            s.N,
			Queries:          s.Queries,
			GoVersion:        runtime.Version(),
			GOMAXPROCS:       runtime.GOMAXPROCS(0),
			WallSeconds:      wall.Seconds(),
			RegionsProcessed: delta.RegionsProcessed,
			LPCalls:          delta.LPSolves,
			QPCalls:          delta.QPSolves,
			AllocBytes:       msAfter.TotalAlloc - msBefore.TotalAlloc,
			Mallocs:          msAfter.Mallocs - msBefore.Mallocs,
		}
		for _, t := range tables {
			r.Tables = append(r.Tables, tableJS{ID: t.ID, Caption: t.Caption, Header: t.Header, Rows: t.Rows})
		}
		if *jsonDir != "" {
			if err := writeRecord(*jsonDir, r); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: writing JSON record: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
