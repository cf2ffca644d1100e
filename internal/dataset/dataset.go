// Package dataset provides the option datasets of the paper's
// evaluation: the standard Börzsönyi-style synthetic benchmarks
// (independent, correlated, anticorrelated) and deterministic simulated
// stand-ins for the four real datasets (HOTEL, HOUSE, NBA and the CNET
// laptop crawl) whose originals are not redistributable.
//
// The simulated datasets match the originals' cardinality and
// dimensionality exactly and reproduce the correlation character the
// paper reports for them (Table 6), which is what governs TopRR cost:
// TopRR's work depends on how options trade off against each other, not
// on their provenance, so a matched stand-in exercises the same paths.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"toprr/internal/vec"
)

// Distribution identifies a synthetic data distribution.
type Distribution int

// The three standard benchmark distributions.
const (
	Independent Distribution = iota
	Correlated
	Anticorrelated
)

// String returns the paper's abbreviation for the distribution.
func (d Distribution) String() string {
	switch d {
	case Independent:
		return "IND"
	case Correlated:
		return "COR"
	case Anticorrelated:
		return "ANTI"
	default:
		return fmt.Sprintf("dist(%d)", int(d))
	}
}

// ParseDistribution converts "IND"/"COR"/"ANTI" (case-insensitive) to a
// Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "IND":
		return Independent, nil
	case "COR":
		return Correlated, nil
	case "ANTI":
		return Anticorrelated, nil
	default:
		return 0, fmt.Errorf("dataset: unknown distribution %q", s)
	}
}

// Dataset is a named collection of options in [0,1]^d. Names is optional
// per-option labels (used by the laptop case study).
type Dataset struct {
	Name  string
	Pts   []vec.Vector
	Names []string
}

// Len returns the number of options.
func (d *Dataset) Len() int { return len(d.Pts) }

// Dim returns the option-space dimensionality.
func (d *Dataset) Dim() int {
	if len(d.Pts) == 0 {
		return 0
	}
	return d.Pts[0].Dim()
}

// Label returns the display name of option i.
func (d *Dataset) Label(i int) string {
	if i < len(d.Names) && d.Names[i] != "" {
		return d.Names[i]
	}
	return fmt.Sprintf("p%d", i+1)
}

// clamp keeps x within [0,1].
func clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Generate produces n options in d dimensions from the given
// distribution with a deterministic seed.
func Generate(dist Distribution, n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = genPoint(dist, d, rng)
	}
	return &Dataset{Name: fmt.Sprintf("%s-%dx%d", dist, n, d), Pts: pts}
}

func genPoint(dist Distribution, d int, rng *rand.Rand) vec.Vector {
	switch dist {
	case Independent:
		p := vec.New(d)
		for j := range p {
			p[j] = rng.Float64()
		}
		return p
	case Correlated:
		return corPoint(d, rng)
	case Anticorrelated:
		return antiPoint(d, rng)
	default:
		panic("dataset: unknown distribution")
	}
}

// corPoint draws a base value near the diagonal and perturbs each
// attribute slightly, yielding positively correlated attributes.
func corPoint(d int, rng *rand.Rand) vec.Vector {
	base := clamp(0.5 + 0.17*rng.NormFloat64())
	p := vec.New(d)
	for j := range p {
		p[j] = clamp(base + 0.06*rng.NormFloat64())
	}
	return p
}

// antiPoint draws points concentrated around the hyperplane
// Σ_j p[j] ≈ d/2 and spreads mass between attributes, yielding
// negatively correlated attributes (the hard case for skyline-style
// pruning, exactly as in the standard benchmark generator).
func antiPoint(d int, rng *rand.Rand) vec.Vector {
	base := clamp(0.5 + 0.05*rng.NormFloat64())
	p := vec.New(d)
	for j := range p {
		p[j] = base
	}
	// Pairwise transfers preserve the attribute sum while building
	// anticorrelation.
	for t := 0; t < 8*d; t++ {
		i, j := rng.Intn(d), rng.Intn(d)
		if i == j {
			continue
		}
		delta := (rng.Float64()*2 - 1) * 0.3
		if delta > 1-p[i] {
			delta = 1 - p[i]
		}
		if delta < -p[i] {
			delta = -p[i]
		}
		if p[j]-delta > 1 {
			delta = p[j] - 1
		}
		if p[j]-delta < 0 {
			delta = p[j]
		}
		p[i] += delta
		p[j] -= delta
	}
	return p
}

// mixPoint draws from dist with probability frac and Independent
// otherwise; used to produce the "slightly (anti)correlated" character
// of the simulated real datasets.
func mixPoint(dist Distribution, frac float64, d int, rng *rand.Rand) vec.Vector {
	if rng.Float64() < frac {
		return genPoint(dist, d, rng)
	}
	return genPoint(Independent, d, rng)
}

func generateMix(name string, dist Distribution, frac float64, n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = mixPoint(dist, frac, d, rng)
	}
	return &Dataset{Name: name, Pts: pts}
}

// Hotel returns the simulated HOTEL dataset: 418,843 options, 4
// attributes (stars, price, rooms, facilities), slightly anticorrelated
// per the paper's Table 6 characterization.
func Hotel() *Dataset { return generateMix("HOTEL", Anticorrelated, 0.35, 418843, 4, 1001) }

// House returns the simulated HOUSE dataset: 315,265 options, 6
// attributes (household expense categories), slightly anticorrelated.
func House() *Dataset { return generateMix("HOUSE", Anticorrelated, 0.35, 315265, 6, 1002) }

// NBA returns the simulated NBA dataset: 21,960 options, 8 attributes
// (per-player statistics), relatively correlated per Table 6.
func NBA() *Dataset { return generateMix("NBA", Correlated, 0.7, 21960, 8, 1003) }

// Laptops returns the simulated CNET laptop dataset used by the case
// study (Section 6.2): 149 laptops rated on performance and battery
// life, normalized to the unit square. Four well-known models from the
// paper's Figure 7 are pinned at representative positions; the rest are
// drawn from a mildly anticorrelated ratings distribution.
func Laptops() *Dataset {
	rng := rand.New(rand.NewSource(1004))
	type named struct {
		name string
		p    vec.Vector
	}
	pinned := []named{
		{"Acer Predator 15", vec.Of(1.00, 0.36)},
		{"Apple MacBook Pro", vec.Of(0.92, 0.78)},
		{"Lenovo ThinkPad X201", vec.Of(0.64, 0.92)},
		{"Asus Chromebook Flip", vec.Of(0.30, 1.00)},
	}
	n := 149
	d := &Dataset{Name: "LAPTOPS", Pts: make([]vec.Vector, 0, n), Names: make([]string, 0, n)}
	for _, x := range pinned {
		d.Pts = append(d.Pts, x.p)
		d.Names = append(d.Names, x.name)
	}
	for i := len(pinned); i < n; i++ {
		// Ratings trade performance against battery, with broad spread.
		perf := rng.Float64()
		batt := clamp(1.05 - 0.75*perf + 0.25*rng.NormFloat64())
		d.Pts = append(d.Pts, vec.Of(clamp(perf), batt))
		d.Names = append(d.Names, fmt.Sprintf("Laptop %03d", i+1))
	}
	return d
}

// Normalize rescales every attribute to span [0,1] (min-max), in place,
// and returns the dataset for chaining. Constant attributes map to 0.
func (d *Dataset) Normalize() *Dataset {
	if len(d.Pts) == 0 {
		return d
	}
	dim := d.Dim()
	lo := d.Pts[0].Clone()
	hi := d.Pts[0].Clone()
	for _, p := range d.Pts[1:] {
		for j := 0; j < dim; j++ {
			lo[j] = math.Min(lo[j], p[j])
			hi[j] = math.Max(hi[j], p[j])
		}
	}
	for _, p := range d.Pts {
		for j := 0; j < dim; j++ {
			if span := hi[j] - lo[j]; span > 0 {
				p[j] = (p[j] - lo[j]) / span
			} else {
				p[j] = 0
			}
		}
	}
	return d
}

// WriteCSV emits the dataset as one option per line, attributes
// comma-separated, with an optional trailing label column when names
// are present.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, p := range d.Pts {
		for j, x := range p {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(x, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if i < len(d.Names) && d.Names[i] != "" {
			if _, err := bw.WriteString("," + d.Names[i]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV (or any numeric CSV; a
// non-numeric final column is treated as the option label).
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	d := &Dataset{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		label := ""
		if _, err := strconv.ParseFloat(strings.TrimSpace(fields[len(fields)-1]), 64); err != nil && len(fields) > 1 {
			label = strings.TrimSpace(fields[len(fields)-1])
			fields = fields[:len(fields)-1]
		}
		p := vec.New(len(fields))
		for j, f := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %v", line, j+1, err)
			}
			p[j] = x
		}
		if len(d.Pts) > 0 && p.Dim() != d.Dim() {
			return nil, fmt.Errorf("dataset: line %d has %d attributes, want %d", line, p.Dim(), d.Dim())
		}
		d.Pts = append(d.Pts, p)
		d.Names = append(d.Names, label)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
