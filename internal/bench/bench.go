// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 6). Each experiment
// driver returns a Table whose rows mirror the series the paper plots;
// cmd/benchrunner prints them, and the repository-root benchmarks wrap
// them in testing.B form.
//
// Absolute runtimes differ from the paper's testbed, so read the tables
// for shapes (orderings, growth trends, crossovers) rather than
// numbers. The Scale knob shrinks dataset sizes and query counts
// uniformly so the full suite can run in minutes; Scale = 1 reproduces
// the paper's parameter grid exactly.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// Defaults of the paper's Table 5 (bold values).
const (
	DefaultN     = 400000
	DefaultD     = 4
	DefaultK     = 10
	DefaultSigma = 0.01
)

// Scale shrinks experiment workloads uniformly: dataset sizes are
// multiplied by N, and Queries wR regions are averaged per data point.
type Scale struct {
	N          float64       // dataset-size multiplier (1 = paper scale)
	Queries    int           // wR regions averaged per measurement (paper: 50)
	MaxRegions int           // per-query recursion budget; exceeding it marks the query failed (0 = solver default)
	Timeout    time.Duration // per-query wall-clock budget; timed-out queries are annotated like the paper's ">24h" cells (0 = unlimited)
}

// DefaultScale finishes the full suite in a few minutes on a laptop.
var DefaultScale = Scale{N: 0.25, Queries: 3, MaxRegions: 300000, Timeout: 30 * time.Second}

func (s Scale) n(base int) int {
	n := int(float64(base) * s.N)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Table is a printable experiment result: a caption, column headers and
// rows of cells.
type Table struct {
	ID      string
	Caption string
	Header  []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Caption)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RandomRegion draws a random axis-aligned wR of side sigma (optionally
// elongated by gamma along one random axis at constant volume, as in
// Table 7) that fits inside the preference simplex.
func RandomRegion(prefDim int, sigma, gamma float64, rng *rand.Rand) *geom.Polytope {
	sides := make([]float64, prefDim)
	if gamma == 0 {
		gamma = 1
	}
	base := sigma
	if gamma != 1 && prefDim > 0 {
		// One side gamma*s, the rest s, with volume sigma^m.
		base = sigma / math.Pow(gamma, 1/float64(prefDim))
	}
	for j := range sides {
		sides[j] = base
	}
	if gamma != 1 && prefDim > 0 {
		sides[rng.Intn(prefDim)] = gamma * base
	}
	for attempt := 0; attempt < 10000; attempt++ {
		lo, hi := vec.New(prefDim), vec.New(prefDim)
		sum := 0.0
		ok := true
		for j := 0; j < prefDim; j++ {
			if sides[j] >= 1 {
				ok = false
				break
			}
			lo[j] = rng.Float64() * (1 - sides[j])
			hi[j] = lo[j] + sides[j]
			sum += hi[j]
		}
		if !ok {
			break
		}
		if sum <= 1 { // region entirely inside the weight simplex
			return toprr.PrefBox(lo, hi)
		}
	}
	// Fall back to a corner-anchored region (guaranteed feasible for the
	// sigma values of the paper's grid).
	lo, hi := vec.New(prefDim), vec.New(prefDim)
	for j := 0; j < prefDim; j++ {
		s := sides[j]
		if s > 0.9/float64(prefDim) {
			s = 0.9 / float64(prefDim)
		}
		lo[j] = 0.02
		hi[j] = 0.02 + s
	}
	return toprr.PrefBox(lo, hi)
}

// Measurement aggregates solver runs over several query regions.
type Measurement struct {
	Alg         toprr.Algorithm
	Time        time.Duration // mean per query
	Filtered    float64       // mean |D'|
	Vall        float64       // mean |Vall|
	Regions     float64
	Splits      float64
	Lemma5Prune float64
	Failed      int // queries aborted by the MaxRegions valve
}

// RunAlg solves the same queries with one algorithm and averages stats.
func RunAlg(pts []vec.Vector, k int, regions []*geom.Polytope, opt toprr.Options) Measurement {
	m := Measurement{Alg: opt.Alg}
	var total time.Duration
	n := 0
	for _, wr := range regions {
		res, err := toprr.Solve(context.Background(), toprr.NewProblem(pts, k, wr), opt)
		if err != nil {
			m.Failed++
			continue
		}
		total += res.Stats.Elapsed
		m.Filtered += float64(res.Stats.FilteredOptions)
		m.Vall += float64(res.Stats.VallSize)
		m.Regions += float64(res.Stats.Regions)
		m.Splits += float64(res.Stats.Splits)
		m.Lemma5Prune += float64(res.Stats.Lemma5Prunes)
		n++
	}
	if n > 0 {
		m.Time = total / time.Duration(n)
		m.Filtered /= float64(n)
		m.Vall /= float64(n)
		m.Regions /= float64(n)
		m.Splits /= float64(n)
		m.Lemma5Prune /= float64(n)
	}
	return m
}

// Regions draws Queries random wR regions for a preference space.
func (s Scale) Regions(prefDim int, sigma, gamma float64, seed int64) []*geom.Polytope {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*geom.Polytope, s.Queries)
	for i := range out {
		out[i] = RandomRegion(prefDim, sigma, gamma, rng)
	}
	return out
}

// data returns a synthetic dataset at the scaled size.
func (s Scale) data(dist dataset.Distribution, n, d int) *dataset.Dataset {
	return dataset.Generate(dist, s.n(n), d, 7)
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.4gs", d.Seconds())
}

func fmtF(x float64) string { return fmt.Sprintf("%.1f", x) }
