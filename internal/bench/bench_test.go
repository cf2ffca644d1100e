package bench

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"toprr/internal/dataset"
	"toprr/pkg/toprr"
)

func TestRandomRegionInsideSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 3, 5, 7} {
		for iter := 0; iter < 50; iter++ {
			wr := RandomRegion(m, 0.01, 1, rng)
			if wr.IsEmpty() {
				t.Fatalf("m=%d: empty region", m)
			}
			for _, v := range wr.VertexPoints() {
				if v.Sum() > 1+1e-9 {
					t.Fatalf("m=%d: vertex %v outside simplex", m, v)
				}
				for _, x := range v {
					if x < -1e-9 || x > 1+1e-9 {
						t.Fatalf("m=%d: vertex %v outside unit box", m, v)
					}
				}
			}
		}
	}
}

func TestRandomRegionSideLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wr := RandomRegion(3, 0.05, 1, rng)
	lo, hi := wr.BoundingBox()
	for j := range lo {
		if s := hi[j] - lo[j]; s > 0.05+1e-9 {
			t.Errorf("side %d = %v, want <= 0.05", j, s)
		}
	}
}

func TestRandomRegionElongation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wr := RandomRegion(3, 0.05, 4, rng)
	lo, hi := wr.BoundingBox()
	sides := make([]float64, 3)
	long, short := 0.0, 1.0
	for j := range sides {
		sides[j] = hi[j] - lo[j]
		if sides[j] > long {
			long = sides[j]
		}
		if sides[j] < short {
			short = sides[j]
		}
	}
	if long/short < 3.5 {
		t.Errorf("elongation ratio %v, want ~4 (sides %v)", long/short, sides)
	}
	// Constant volume: product of sides == sigma^m.
	vol := sides[0] * sides[1] * sides[2]
	want := 0.05 * 0.05 * 0.05
	if vol < want*0.9 || vol > want*1.1 {
		t.Errorf("volume %v, want ~%v", vol, want)
	}
}

func TestRunAlgAggregates(t *testing.T) {
	ds := dataset.Generate(dataset.Independent, 2000, 3, 5)
	s := Scale{N: 1, Queries: 2}
	regions := s.Regions(2, 0.02, 1, 9)
	m := RunAlg(ds.Pts, 3, regions, toprr.Options{Alg: toprr.TASStar})
	if m.Failed != 0 {
		t.Fatalf("unexpected failures: %d", m.Failed)
	}
	if m.Time <= 0 || m.Filtered <= 0 || m.Vall <= 0 {
		t.Errorf("aggregates not populated: %+v", m)
	}
}

func TestRunAlgReportsFailures(t *testing.T) {
	ds := dataset.Generate(dataset.Anticorrelated, 3000, 4, 5)
	s := Scale{N: 1, Queries: 1}
	regions := s.Regions(3, 0.1, 1, 9)
	m := RunAlg(ds.Pts, 10, regions, toprr.Options{Alg: toprr.TAS, MaxRegions: 1})
	if m.Failed != 1 {
		t.Errorf("expected the MaxRegions valve to trip, got %+v", m)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Caption: "caption",
		Header:  []string{"col", "value"},
		Rows:    [][]string{{"a", "1"}, {"longer-name", "2"}},
	}
	out := tab.String()
	for _, want := range []string{"== T: caption ==", "longer-name", "col"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("table has %d lines, want 5", len(lines))
	}
}

func TestScaleN(t *testing.T) {
	s := Scale{N: 0.5, Queries: 1}
	if got := s.n(100000); got != 50000 {
		t.Errorf("n = %d, want 50000", got)
	}
	if got := s.n(100); got != 1000 { // floor
		t.Errorf("floor n = %d, want 1000", got)
	}
}

func TestFindAndAll(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("expected 17 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Caption == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Find("fig9a"); !ok {
		t.Error("fig9a should exist")
	}
	if _, ok := Find("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

// TestSmallExperimentsRun executes the quick experiment drivers end to
// end at a tiny scale, asserting each yields non-empty tables.
func TestSmallExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers take seconds")
	}
	s := Scale{N: 0.01, Queries: 1}
	for _, id := range []string{"fig7", "fig12", "fig13", "fig14"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		start := time.Now()
		tables := e.Run(s)
		if len(tables) == 0 {
			t.Fatalf("%s returned no tables", id)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced an empty table %s", id, tab.ID)
			}
		}
		t.Logf("%s ok in %v", id, time.Since(start))
	}
}

func TestCellAnnotation(t *testing.T) {
	s := Scale{Timeout: 30 * time.Second}
	if got := s.cell(Measurement{Failed: 3}, 3); got != ">30s" {
		t.Errorf("all-failed cell = %q", got)
	}
	if got := s.cell(Measurement{Time: time.Second, Failed: 1}, 3); got != "1s (1/3 failed)" {
		t.Errorf("partial-failure cell = %q", got)
	}
	if got := s.cell(Measurement{Time: time.Second}, 3); got != "1s" {
		t.Errorf("clean cell = %q", got)
	}
	noTimeout := Scale{}
	if got := noTimeout.cell(Measurement{Failed: 2}, 2); got != "budget exceeded" {
		t.Errorf("budget cell = %q", got)
	}
}

func TestHumanN(t *testing.T) {
	if humanN(25000) != "25k" || humanN(1600000) != "1.6M" {
		t.Errorf("humanN wrong: %q %q", humanN(25000), humanN(1600000))
	}
}

func TestDGrid(t *testing.T) {
	small := Scale{N: 0.25}
	if g := small.dGrid(); len(g) != 4 || g[len(g)-1] != 8 {
		t.Errorf("reduced-scale d grid = %v", g)
	}
	full := Scale{N: 1}
	if g := full.dGrid(); len(g) != len(GridD) {
		t.Errorf("full-scale d grid = %v", g)
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDur(1500 * time.Millisecond); got != "1.5s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtF(3.14159); got != "3.1" {
		t.Errorf("fmtF = %q", got)
	}
}
