package main

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// selfTestScale shrinks every workload's dataset and pools tenfold.
const selfTestScale = 10

// scaled shrinks the dataset and pools for the self-test; factor 1 is the
// benchmark proper.
func (sp *spec) scaled(factor int) *spec {
	if factor <= 1 {
		return sp
	}
	c := *sp
	c.n /= factor
	if c.elite > c.n/4 {
		c.elite = c.n / 4
	}
	c.boxes = max(4, c.boxes/factor)
	c.prefs = max(4, c.prefs/factor)
	c.warmBatch = max(3, c.warmBatch/factor)
	return &c
}

// tinyRun runs one workload at self-test size for a fixed number of
// timed ops, traced, so the output-determined counters are collected.
func tinyRun(t *testing.T, name string, seed int64, toprrd string) *outcome {
	t.Helper()
	sp, err := findSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{sp: sp.scaled(selfTestScale), seed: seed, seconds: time.Second, maxOps: 60,
		trace: true, setups: 1, work: filepath.Join(t.TempDir(), "work"), toprrd: toprrd}
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if out.failed != 0 {
		t.Errorf("%s seed %d: %d of %d ops failed", name, seed, out.failed, out.attempted)
	}
	return out
}

// TestSelfTest runs every workload twice at tiny size with one seed: the
// two runs must issue identical op streams and report identical
// output-determined counters. A run on a second seed must give no wrong
// answer.
//
// The engine solves with one worker per shard, up to GOMAXPROCS; with
// two workers the partition of wR follows the order regions finish in,
// so regions, Vall and clips vary from run to run while the region does
// not. The test therefore pins GOMAXPROCS to 1, in this process and in
// the toprrd child, which makes the solves deterministic.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds toprrd and runs every workload")
	}
	t.Setenv("GOMAXPROCS", "1")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	toprrd := filepath.Join(t.TempDir(), "toprrd")
	build := exec.Command("go", "build", "-o", toprrd, "toprr/cmd/toprrd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build toprrd: %v\n%s", err, out)
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			a := tinyRun(t, sp.name, 1, toprrd)
			b := tinyRun(t, sp.name, 1, toprrd)
			if a.opsHash != b.opsHash {
				t.Errorf("op streams differ between two runs of seed 1: %x vs %x", a.opsHash, b.opsHash)
			}
			if a.determined != b.determined {
				t.Errorf("output-determined counters (filtered, regions, Vall, clips) differ: %v vs %v", a.determined, b.determined)
			}
			if a.determined[0] == 0 || a.determined[2] == 0 {
				t.Errorf("no traced solve work recorded: %v", a.determined)
			}
			for _, o := range []*outcome{a, b, tinyRun(t, sp.name, 2, toprrd)} {
				if len(o.wrong) != 0 {
					t.Errorf("wrong answers: %v", o.wrong)
				}
			}
		})
	}
}

// TestStreamIsAPrefixFunction pins the property timed runs rely on:
// the op stream depends on the seed alone, so a run that gets further
// issues a longer prefix of the same stream.
func TestStreamIsAPrefixFunction(t *testing.T) {
	for _, sp := range specs {
		in := genInputs(sp.scaled(selfTestScale), 7)
		a := newStream(sp, 7, len(in.queries), len(in.prefs))
		b := newStream(sp, 7, len(in.queries), len(in.prefs))
		for i := 0; i < 500; i++ {
			a.next()
			b.next()
			if a.hash != b.hash {
				t.Fatalf("%s: streams diverge at op %d", sp.name, i)
			}
		}
		if c := newStream(sp, 8, len(in.queries), len(in.prefs)); func() uint64 {
			for i := 0; i < 500; i++ {
				c.next()
			}
			return c.hash
		}() == a.hash {
			t.Errorf("%s: seeds 7 and 8 give the same stream", sp.name)
		}
	}
}

// TestIngestBatchesKeepSize checks that the Apply batch cycle leaves the
// dataset size where it started, so how far a run gets does not change
// the data the next ops see.
func TestIngestBatchesKeepSize(t *testing.T) {
	sp, _ := findSpec("ingest")
	s := newStream(sp, 3, 6, 6)
	for i := 0; i < 3*20; i++ {
		s.nextBatch()
	}
	if s.n != sp.n {
		t.Fatalf("after 20 batch cycles the dataset holds %d options, want %d", s.n, sp.n)
	}
}

// Coupling guard. The untraced run may use only the surfaces the
// roadmap keeps; the program counters are read in layers.go alone, so
// regrouping them cannot move an end-to-end number.
var (
	// counterReads may appear only in layers.go.
	counterReads = []string{"CacheStats", "PersistStats", "/v1/stats", "ReadCounters"}
	// banned may appear nowhere: surfaces later changes may delete.
	banned = []string{"ReadCounters", `"/v1/solve"`, `"/v1/batch"`, `"/v1/ops"`, "WithRemoteShards",
		"BreadthFirst", "PriorityOrder", "SolveBatch", "RankAt", "ApproxImpact", ".Watch("}
	// tracedOnly are the internal packages only the traced run imports.
	tracedOnly = []string{"toprr/internal/skyband", "toprr/internal/sketch", "toprr/internal/store",
		"toprr/internal/core", "toprr/internal/qp", "toprr/internal/lp", "toprr/internal/fabric"}
)

func TestCouplingGuard(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, b := range banned {
			if strings.Contains(text, b) {
				t.Errorf("%s uses %s, which the benchmark must not depend on", name, b)
			}
		}
		if name != "layers.go" {
			for _, c := range counterReads {
				if strings.Contains(text, c) {
					t.Errorf("%s reads %s; counter reads belong in layers.go", name, c)
				}
			}
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		traced := name == "trace.go" || name == "layers.go"
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, p := range tracedOnly {
				if path == p && !traced {
					t.Errorf("%s imports %s; only the traced run may", name, path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				// Result.Stats is read only in layers.go.
				if x.Sel.Name == "Stats" && name != "layers.go" {
					t.Errorf("%s: %s reads .Stats outside layers.go", name, fset.Position(x.Pos()))
				}
			case *ast.KeyValueExpr:
				// No solve runs with a custom pipeline stage.
				if id, ok := x.Key.(*ast.Ident); ok && (id.Name == "Assembler" || id.Name == "Prefilter" || id.Name == "Traversal") {
					t.Errorf("%s: %s sets Options.%s", name, fset.Position(x.Pos()), id.Name)
				}
			}
			return true
		})
	}
}
