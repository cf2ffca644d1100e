package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/skyband"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// humanN renders a dataset size compactly (250k, 1.6M).
func humanN(n int) string {
	if n >= 1000000 {
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	}
	return fmt.Sprintf("%dk", n/1000)
}

// Parameter grids of Table 5.
var (
	GridK     = []int{1, 5, 10, 20, 40}
	GridSigma = []float64{0.001, 0.005, 0.01, 0.05, 0.10}
	GridN     = []int{100000, 200000, 400000, 800000, 1600000}
	GridD     = []int{2, 4, 6, 8, 10, 12}
	GridGamma = []float64{0.25, 0.5, 1, 2, 4}
	AllDists  = []dataset.Distribution{dataset.Correlated, dataset.Independent, dataset.Anticorrelated}
	AllAlgs   = []toprr.Algorithm{toprr.PAC, toprr.TAS, toprr.TASStar}
)

// Experiment is a named driver that produces one or more tables.
type Experiment struct {
	ID      string
	Caption string
	Run     func(s Scale) []*Table
}

// All returns every experiment of the evaluation, in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig7", "Case study: introducing a new laptop (Section 6.2)", Fig7},
		{"fig8", "Filter trade-offs: |D'| vs time (Section 6.3)", Fig8},
		{"fig9a", "PAC/TAS/TAS* vs k", Fig9a},
		{"fig9b", "PAC/TAS/TAS* vs sigma", Fig9b},
		{"fig9c", "PAC/TAS/TAS* vs n", Fig9c},
		{"fig9d", "PAC/TAS/TAS* vs d", Fig9d},
		{"fig10a", "TAS* data distributions vs k", Fig10a},
		{"fig10b", "TAS* data distributions vs sigma", Fig10b},
		{"fig10c", "TAS* data distributions vs n", Fig10c},
		{"fig10d", "TAS* data distributions vs d", Fig10d},
		{"fig11a", "TAS* on real datasets vs k", Fig11a},
		{"fig11b", "TAS* on real datasets vs sigma", Fig11b},
		{"table6", "Real vs synthetic datasets", Table6},
		{"table7", "Effect of wR elongation", Table7},
		{"fig12", "Lemma 5 pruning power (|D'|)", Fig12},
		{"fig13", "Lemma 7 effect on |Vall|", Fig13},
		{"fig14", "k-switch effect on |Vall|", Fig14},
	}
}

// options builds solver options carrying the scale's recursion and time
// budgets.
func (s Scale) options(alg toprr.Algorithm) toprr.Options {
	return toprr.Options{Alg: alg, MaxRegions: s.MaxRegions, Timeout: s.Timeout}
}

// cell renders a measurement's mean time, annotating budget-exceeded
// queries the way the paper annotates PAC's ">24 hours" cells.
func (s Scale) cell(m Measurement, total int) string {
	if m.Failed == total {
		if s.Timeout > 0 {
			return fmt.Sprintf(">%v", s.Timeout)
		}
		return "budget exceeded"
	}
	out := fmtDur(m.Time)
	if m.Failed > 0 {
		out += fmt.Sprintf(" (%d/%d failed)", m.Failed, total)
	}
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------- Fig 7

// Fig7 reruns the case study: a 2-attribute laptop market, two client
// types, k = 3, quadratic manufacturing cost.
func Fig7(s Scale) []*Table {
	lap := dataset.Laptops()
	t := &Table{
		ID:      "Fig7",
		Caption: "laptop case study, k=3, cost = performance^2 + battery^2",
		Header:  []string{"wR", "|oR verts|", "optimal placement", "cost", "savings vs in-region rivals"},
	}
	for _, wr := range []struct{ lo, hi float64 }{{0.7, 0.8}, {0.1, 0.2}} {
		prob := toprr.NewProblem(lap.Pts, 3, toprr.PrefBox(vec.Of(wr.lo), vec.Of(wr.hi)))
		res, err := toprr.Solve(context.Background(), prob, toprr.Options{Alg: toprr.TASStar})
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("[%.1f,%.1f]", wr.lo, wr.hi), "error: " + err.Error(), "", "", ""})
			continue
		}
		opt, err := res.CostOptimalNew()
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("[%.1f,%.1f]", wr.lo, wr.hi), "error: " + err.Error(), "", "", ""})
			continue
		}
		cost := opt.Dot(opt)
		minSave, maxSave := math.Inf(1), math.Inf(-1)
		for _, p := range lap.Pts {
			if res.IsTopRanking(p) {
				if pc := p.Dot(p); pc > cost {
					save := (pc - cost) / pc * 100
					minSave = math.Min(minSave, save)
					maxSave = math.Max(maxSave, save)
				}
			}
		}
		savings := "n/a"
		if !math.IsInf(minSave, 1) {
			savings = fmt.Sprintf("%.1f%%-%.1f%%", minSave, maxSave)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[%.1f,%.1f]", wr.lo, wr.hi),
			fmt.Sprintf("%d", res.OR.NumVertices()), // d=2: geometry always enumerable
			opt.String(),
			fmt.Sprintf("%.3f", cost),
			savings,
		})
	}
	return []*Table{t}
}

// ---------------------------------------------------------------- Fig 8

// Fig8 compares the four fast filters on |D'| and computation time at
// default parameters. The onion and UTK filters are super-linear, so the
// driver caps their input size and notes the cap in the caption.
func Fig8(s Scale) []*Table {
	const onionCap = 4000
	full := s.data(dataset.Independent, DefaultN, DefaultD)
	small := full.Pts
	if len(small) > onionCap {
		small = small[:onionCap]
	}
	wr := s.Regions(DefaultD-1, DefaultSigma, 1, 11)[0]
	rd := skyband.NewRDomVerts(wr.VertexPoints())

	t := &Table{
		ID:      "Fig8",
		Caption: fmt.Sprintf("filter trade-offs, IND n=%d d=%d k=%d sigma=%.1f%% (k-onion on first %d options)", len(full.Pts), DefaultD, DefaultK, DefaultSigma*100, len(small)),
		Header:  []string{"filter", "|D'|", "time"},
	}
	type filt struct {
		name string
		run  func() int
	}
	filters := []filt{
		{"k-skyband", func() int { return len(skyband.KSkyband(full.Pts, DefaultK)) }},
		{"k-onion layers", func() int { return len(skyband.OnionLayers(small, DefaultK)) }},
		{"r-skyband", func() int { return len(skyband.RSkyband(full.Pts, DefaultK, rd)) }},
		{"UTK", func() int {
			// UTK pre-filters with the r-skyband internally, so it runs
			// on the full dataset; its time is r-skyband's plus the kIPR
			// partitioning — the paper's "optimal size, twice the time".
			out, err := toprr.UTKFilter(context.Background(), full.Pts, DefaultK, wr)
			if err != nil {
				return -1
			}
			return len(out)
		}},
	}
	for _, f := range filters {
		t0 := time.Now()
		size := f.run()
		t.Rows = append(t.Rows, []string{f.name, fmt.Sprintf("%d", size), fmtDur(time.Since(t0))})
	}
	return []*Table{t}
}

// ---------------------------------------------------------------- Fig 9

func collective(s Scale, id, caption, varName string, points []string, build func(i int) ([]vec.Vector, int, []*geom.Polytope)) []*Table {
	t := &Table{ID: id, Caption: caption,
		Header: []string{varName, "PAC", "TAS", "TAS*", "|D'|", "|Vall| TAS*"}}
	for i, label := range points {
		pts, k, regions := build(i)
		row := []string{label}
		var last Measurement
		for _, alg := range AllAlgs {
			m := RunAlg(pts, k, regions, s.options(alg))
			row = append(row, s.cell(m, len(regions)))
			last = m
		}
		row = append(row, fmtF(last.Filtered), fmtF(last.Vall))
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// Fig9a varies k at the defaults.
func Fig9a(s Scale) []*Table {
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	labels := make([]string, len(GridK))
	for i, k := range GridK {
		labels[i] = fmt.Sprintf("%d", k)
	}
	return collective(s, "Fig9a", "PAC/TAS/TAS* running time vs k (IND, defaults)", "k", labels,
		func(i int) ([]vec.Vector, int, []*geom.Polytope) {
			return ds.Pts, GridK[i], s.Regions(DefaultD-1, DefaultSigma, 1, int64(100+i))
		})
}

// Fig9b varies the preference-region side length sigma.
func Fig9b(s Scale) []*Table {
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	labels := make([]string, len(GridSigma))
	for i, sg := range GridSigma {
		labels[i] = fmt.Sprintf("%.1f%%", sg*100)
	}
	return collective(s, "Fig9b", "PAC/TAS/TAS* running time vs sigma (IND, defaults)", "sigma", labels,
		func(i int) ([]vec.Vector, int, []*geom.Polytope) {
			return ds.Pts, DefaultK, s.Regions(DefaultD-1, GridSigma[i], 1, int64(200+i))
		})
}

// Fig9c varies the dataset size n.
func Fig9c(s Scale) []*Table {
	labels := make([]string, len(GridN))
	for i, n := range GridN {
		labels[i] = humanN(s.n(n))
	}
	return collective(s, "Fig9c", "PAC/TAS/TAS* running time vs n (IND, defaults)", "n", labels,
		func(i int) ([]vec.Vector, int, []*geom.Polytope) {
			ds := s.data(dataset.Independent, GridN[i], DefaultD)
			return ds.Pts, DefaultK, s.Regions(DefaultD-1, DefaultSigma, 1, int64(300+i))
		})
}

// dGrid returns the dimensionality sweep for the given scale. Below
// paper scale the grid stops at d = 8: a single d >= 10 query costs what
// the paper itself reports as ~10^3 seconds, which defeats a reduced-
// scale run (use -scale 1 to sweep the full grid).
func (s Scale) dGrid() []int {
	if s.N < 1 {
		return []int{2, 4, 6, 8}
	}
	return GridD
}

// Fig9d varies the dimensionality d.
func Fig9d(s Scale) []*Table {
	grid := s.dGrid()
	labels := make([]string, len(grid))
	for i, d := range grid {
		labels[i] = fmt.Sprintf("%d", d)
	}
	caption := "PAC/TAS/TAS* running time vs d (IND, defaults)"
	if s.N < 1 {
		caption += " [d capped at 8 below paper scale]"
	}
	return collective(s, "Fig9d", caption, "d", labels,
		func(i int) ([]vec.Vector, int, []*geom.Polytope) {
			d := grid[i]
			ds := s.data(dataset.Independent, DefaultN, d)
			return ds.Pts, DefaultK, s.Regions(d-1, DefaultSigma, 1, int64(400+i))
		})
}

// --------------------------------------------------------------- Fig 10

func distSweep(s Scale, id, caption, varName string, labels []string, build func(dist dataset.Distribution, i int) ([]vec.Vector, int, []*geom.Polytope)) []*Table {
	t := &Table{ID: id, Caption: caption, Header: append([]string{varName}, "COR", "IND", "ANTI")}
	for i, label := range labels {
		row := []string{label}
		for _, dist := range AllDists {
			pts, k, regions := build(dist, i)
			m := RunAlg(pts, k, regions, s.options(toprr.TASStar))
			row = append(row, s.cell(m, len(regions)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// Fig10a runs TAS* per distribution, varying k.
func Fig10a(s Scale) []*Table {
	labels := make([]string, len(GridK))
	for i, k := range GridK {
		labels[i] = fmt.Sprintf("%d", k)
	}
	return distSweep(s, "Fig10a", "TAS* per data distribution vs k", "k", labels,
		func(dist dataset.Distribution, i int) ([]vec.Vector, int, []*geom.Polytope) {
			ds := s.data(dist, DefaultN, DefaultD)
			return ds.Pts, GridK[i], s.Regions(DefaultD-1, DefaultSigma, 1, int64(500+i))
		})
}

// Fig10b runs TAS* per distribution, varying sigma.
func Fig10b(s Scale) []*Table {
	labels := make([]string, len(GridSigma))
	for i, sg := range GridSigma {
		labels[i] = fmt.Sprintf("%.1f%%", sg*100)
	}
	return distSweep(s, "Fig10b", "TAS* per data distribution vs sigma", "sigma", labels,
		func(dist dataset.Distribution, i int) ([]vec.Vector, int, []*geom.Polytope) {
			ds := s.data(dist, DefaultN, DefaultD)
			return ds.Pts, DefaultK, s.Regions(DefaultD-1, GridSigma[i], 1, int64(600+i))
		})
}

// Fig10c runs TAS* per distribution, varying n.
func Fig10c(s Scale) []*Table {
	labels := make([]string, len(GridN))
	for i, n := range GridN {
		labels[i] = humanN(s.n(n))
	}
	return distSweep(s, "Fig10c", "TAS* per data distribution vs n", "n", labels,
		func(dist dataset.Distribution, i int) ([]vec.Vector, int, []*geom.Polytope) {
			ds := s.data(dist, GridN[i], DefaultD)
			return ds.Pts, DefaultK, s.Regions(DefaultD-1, DefaultSigma, 1, int64(700+i))
		})
}

// Fig10d runs TAS* per distribution, varying d.
func Fig10d(s Scale) []*Table {
	grid := s.dGrid()
	labels := make([]string, len(grid))
	for i, d := range grid {
		labels[i] = fmt.Sprintf("%d", d)
	}
	caption := "TAS* per data distribution vs d"
	if s.N < 1 {
		caption += " [d capped at 8 below paper scale]"
	}
	return distSweep(s, "Fig10d", caption, "d", labels,
		func(dist dataset.Distribution, i int) ([]vec.Vector, int, []*geom.Polytope) {
			d := grid[i]
			ds := s.data(dist, DefaultN, d)
			return ds.Pts, DefaultK, s.Regions(d-1, DefaultSigma, 1, int64(800+i))
		})
}

// --------------------------------------------------------------- Fig 11

// realSets returns the simulated real datasets scaled by s.N (they are
// sliced, preserving distribution).
func realSets(s Scale) []*dataset.Dataset {
	sets := []*dataset.Dataset{dataset.Hotel(), dataset.House(), dataset.NBA()}
	for _, ds := range sets {
		n := int(float64(ds.Len()) * s.N)
		if n < 1000 {
			n = 1000
		}
		if n < ds.Len() {
			ds.Pts = ds.Pts[:n]
		}
	}
	return sets
}

// Fig11a runs TAS* on the real datasets, varying k.
func Fig11a(s Scale) []*Table {
	sets := realSets(s)
	t := &Table{ID: "Fig11a", Caption: "TAS* on real datasets vs k",
		Header: []string{"k", "HOTEL", "HOUSE", "NBA"}}
	for i, k := range GridK {
		row := []string{fmt.Sprintf("%d", k)}
		for _, ds := range sets {
			m := RunAlg(ds.Pts, k, s.Regions(ds.Dim()-1, DefaultSigma, 1, int64(900+i)), s.options(toprr.TASStar))
			row = append(row, fmtDur(m.Time))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// Fig11b runs TAS* on the real datasets, varying sigma.
func Fig11b(s Scale) []*Table {
	sets := realSets(s)
	t := &Table{ID: "Fig11b", Caption: "TAS* on real datasets vs sigma",
		Header: []string{"sigma", "HOTEL", "HOUSE", "NBA"}}
	for i, sg := range GridSigma {
		row := []string{fmt.Sprintf("%.1f%%", sg*100)}
		for _, ds := range sets {
			m := RunAlg(ds.Pts, DefaultK, s.Regions(ds.Dim()-1, sg, 1, int64(1000+i)), s.options(toprr.TASStar))
			row = append(row, fmtDur(m.Time))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// -------------------------------------------------------------- Table 6

// Table6 compares each real dataset against synthetic data of the same
// cardinality and dimensionality.
func Table6(s Scale) []*Table {
	t := &Table{ID: "Table6", Caption: "real vs synthetic datasets of matching (n, d), TAS*, defaults",
		Header: []string{"dataset", "n", "d", "COR", "IND", "ANTI", "Real"}}
	for i, real := range realSets(s) {
		n, d := real.Len(), real.Dim()
		row := []string{real.Name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", d)}
		regions := s.Regions(d-1, DefaultSigma, 1, int64(1100+i))
		for _, dist := range AllDists {
			syn := dataset.Generate(dist, n, d, 7)
			m := RunAlg(syn.Pts, DefaultK, regions, s.options(toprr.TASStar))
			row = append(row, fmtDur(m.Time))
		}
		m := RunAlg(real.Pts, DefaultK, regions, s.options(toprr.TASStar))
		row = append(row, fmtDur(m.Time))
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// -------------------------------------------------------------- Table 7

// Table7 elongates wR by gamma at constant volume.
func Table7(s Scale) []*Table {
	t := &Table{ID: "Table7", Caption: "effect of wR elongation (gamma), TAS*",
		Header: []string{"gamma", "HOTEL", "HOUSE", "NBA"}}
	sets := realSets(s)
	for i, g := range GridGamma {
		row := []string{fmt.Sprintf("%.2f", g)}
		for _, ds := range sets {
			m := RunAlg(ds.Pts, DefaultK, s.Regions(ds.Dim()-1, DefaultSigma, g, int64(1200+i)), s.options(toprr.TASStar))
			row = append(row, fmtDur(m.Time))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// --------------------------------------------------------- Figs 12-14

// Fig12 measures |D'| under r-skyband alone vs r-skyband + Lemma 5.
func Fig12(s Scale) []*Table {
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	varyK := &Table{ID: "Fig12a", Caption: "|D'|: r-skyband vs r-skyband+Lemma 5, varying k",
		Header: []string{"k", "r-skyband", "+Lemma 5"}}
	for i, k := range GridK {
		var r, l float64
		regions := s.Regions(DefaultD-1, DefaultSigma, 1, int64(1300+i))
		for _, wr := range regions {
			a, b := toprr.FilterSizes(toprr.NewProblem(ds.Pts, k, wr))
			r += float64(a)
			l += float64(b)
		}
		q := float64(len(regions))
		varyK.Rows = append(varyK.Rows, []string{fmt.Sprintf("%d", k), fmtF(r / q), fmtF(l / q)})
	}
	varyS := &Table{ID: "Fig12b", Caption: "|D'|: r-skyband vs r-skyband+Lemma 5, varying sigma",
		Header: []string{"sigma", "r-skyband", "+Lemma 5"}}
	for i, sg := range GridSigma {
		var r, l float64
		regions := s.Regions(DefaultD-1, sg, 1, int64(1400+i))
		for _, wr := range regions {
			a, b := toprr.FilterSizes(toprr.NewProblem(ds.Pts, DefaultK, wr))
			r += float64(a)
			l += float64(b)
		}
		q := float64(len(regions))
		varyS.Rows = append(varyS.Rows, []string{fmt.Sprintf("%.1f%%", sg*100), fmtF(r / q), fmtF(l / q)})
	}
	return []*Table{varyK, varyS}
}

// ablationVall builds the Figures 13/14 tables: |Vall| with one TAS*
// optimization toggled.
func ablationVall(s Scale, id, caption, optName string, disable func(*toprr.Options)) []*Table {
	ds := s.data(dataset.Independent, DefaultN, DefaultD)
	run := func(k int, sigma float64, seed int64, off bool) float64 {
		opt := s.options(toprr.TASStar)
		if off {
			disable(&opt)
		}
		m := RunAlg(ds.Pts, k, s.Regions(DefaultD-1, sigma, 1, seed), opt)
		return m.Vall
	}
	varyK := &Table{ID: id + "a", Caption: caption + ", varying k",
		Header: []string{"k", optName + " disabled", optName + " enabled"}}
	for i, k := range GridK {
		seed := int64(1500 + i)
		varyK.Rows = append(varyK.Rows, []string{fmt.Sprintf("%d", k),
			fmtF(run(k, DefaultSigma, seed, true)), fmtF(run(k, DefaultSigma, seed, false))})
	}
	varyS := &Table{ID: id + "b", Caption: caption + ", varying sigma",
		Header: []string{"sigma", optName + " disabled", optName + " enabled"}}
	for i, sg := range GridSigma {
		seed := int64(1600 + i)
		varyS.Rows = append(varyS.Rows, []string{fmt.Sprintf("%.1f%%", sg*100),
			fmtF(run(DefaultK, sg, seed, true)), fmtF(run(DefaultK, sg, seed, false))})
	}
	return []*Table{varyK, varyS}
}

// Fig13 measures |Vall| with Lemma 7 enabled/disabled.
func Fig13(s Scale) []*Table {
	return ablationVall(s, "Fig13", "|Vall| with/without Lemma 7", "Lemma 7",
		func(o *toprr.Options) { o.DisableLemma7 = true })
}

// Fig14 measures |Vall| with the k-switch strategy enabled/disabled.
func Fig14(s Scale) []*Table {
	return ablationVall(s, "Fig14", "|Vall| with/without k-switch", "k-switch",
		func(o *toprr.Options) { o.DisableKSwitch = true })
}
