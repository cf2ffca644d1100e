package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"toprr/internal/dataset"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// opKind is one operation of a workload's mix.
type opKind uint8

const (
	kindSolve  opKind = iota // Engine.SolveAt, or POST .../solve
	kindRank                 // Engine.Rank
	kindApprox               // Engine.ApproxRank, or POST .../solve?approx=1
	kindPlace                // Result.CostOptimalNew on a solved region, cycling through the pool
	kindApply                // Engine.Apply
	kindBatch                // POST .../batch
	numKinds
)

var kindNames = [numKinds]string{"solve", "rank", "approx", "place", "apply", "batch"}

func (k opKind) String() string { return kindNames[k] }

// spec fixes everything a workload runs except the seed.
type spec struct {
	name string

	// Dataset: dist is "IND", "ANTI" or "elite" (a few dozen options every
	// preference ranks above a dominated mass).
	dist  string
	n, d  int
	elite int

	// Query pool (d is 3, so wR is two-dimensional): boxes preference
	// boxes with sides in [sideLo, sideHi] and centres in
	// [boxCentre-spread, boxCentre+spread]^2, crossed with the rank
	// thresholds ks. Preference pool: prefs reduced weight vectors, each
	// paired with a k from ks. With zipf, boxes and preferences are drawn
	// Zipf-skewed (entry i with weight (zipfOffset+i)^-zipfExponent),
	// otherwise uniformly; k is always uniform.
	boxes          int
	spread         float64
	sideLo, sideHi float64
	ks             []int
	prefs          int
	zipf           bool

	// mix weights the op kinds; applyEvery > 0 interleaves one Apply
	// batch after every applyEvery reads instead.
	mix        [numKinds]int
	applyEvery int
	batchOps   int // ops per Apply batch
	batchSize  int // queries per batch request
	warmBatch  int // Apply batches run during set-up (then replayed on reopen)

	durable bool // WithPersistenceConfig with walSync
	daemon  bool // driven over HTTP against a child toprrd
}

// Popularity of the skewed pools, and where the query boxes centre.
const (
	zipfExponent = 1.1
	zipfOffset   = 16
	boxCentre    = 0.33
)

// walSync is the durable workload's WAL sync mode. Every Apply appends
// its WAL record and the set-up replays the WAL on reopen, but flushing
// is left to the OS: fsync latency on the reference VM moved Apply p50
// between 0.85 and 1.70 ms from run to run, too far to gate (README.md).
const walSync = toprr.SyncNone

var specs = []*spec{
	{
		name: "dashboard",
		dist: "IND", n: 10000, d: 3,
		boxes: 64, spread: 0.25, sideLo: 0.02, sideHi: 0.05, ks: []int{5, 10, 20}, prefs: 64, zipf: true,
		mix: [numKinds]int{kindSolve: 50, kindRank: 20, kindApprox: 15, kindPlace: 15},
	},
	{
		name: "deep",
		dist: "ANTI", n: 4000, d: 3,
		boxes: 96, spread: 0.1, sideLo: 0.02, sideHi: 0.025, ks: []int{10, 15}, prefs: 32,
		mix: [numKinds]int{kindSolve: 75, kindApprox: 10, kindPlace: 15},
	},
	{
		name: "ingest",
		dist: "IND", n: 10000, d: 3,
		boxes: 64, spread: 0.25, sideLo: 0.02, sideHi: 0.05, ks: []int{5, 10, 20}, prefs: 64, zipf: true,
		mix:        [numKinds]int{kindSolve: 50, kindRank: 20, kindApprox: 15, kindPlace: 15},
		applyEvery: 3, batchOps: 8, warmBatch: 60, durable: true,
	},
	{
		name: "http",
		dist: "elite", n: 50000, d: 3, elite: 48,
		boxes: 64, spread: 0.25, sideLo: 0.02, sideHi: 0.05, ks: []int{5, 10, 20},
		mix:       [numKinds]int{kindSolve: 60, kindApprox: 30, kindBatch: 10},
		batchSize: 2, daemon: true,
	},
}

// ownOp is the op the workload's op_p50_ms reports: the one, besides
// solve and approx, that the workload exists to measure.
func (sp *spec) ownOp() opKind {
	switch {
	case sp.applyEvery > 0:
		return kindApply
	case sp.batchSize > 0:
		return kindBatch
	case sp.mix[kindRank] > 0:
		return kindRank
	default:
		return kindPlace
	}
}

func findSpec(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query is one pooled TopRR request.
type query struct {
	k      int
	lo, hi vec.Vector
	q      toprr.Query
}

// pref is one pooled reduced preference with its rank threshold.
type pref struct {
	w vec.Vector
	k int
}

// op is one operation of a workload's stream. Reads name pool entries;
// an Apply carries its batch.
type op struct {
	kind    opKind
	query   int   // solve, approx over HTTP, place (ignored)
	pref    int   // rank, approx in-process
	batch   []int // batch request: query indices
	mutates []toprr.Op
}

// inputs are a workload's generated inputs: the dataset and the pools.
type inputs struct {
	pts     []vec.Vector
	queries []query
	prefs   []pref
}

// datasetSeed draws every workload's dataset. The run's seed draws the
// query and preference pools, the op stream and the Apply batches: with
// the dataset drawn from the run's seed too, the metrics of `deep` moved
// 15-22% between seeds, against 10-12% when only the pools and streams
// changed (README.md).
const datasetSeed = 1

// genInputs draws the dataset and, from the seed, the pools.
func genInputs(sp *spec, seed int64) inputs {
	var in inputs
	switch sp.dist {
	case "elite":
		in.pts = eliteMarket(sp.n, sp.d, sp.elite, datasetSeed)
	default:
		dist, err := dataset.ParseDistribution(sp.dist)
		if err != nil {
			panic(err) // specs are constants
		}
		in.pts = dataset.Generate(dist, sp.n, sp.d, datasetSeed).Pts
	}
	// Boxes and preferences are spread evenly by a Halton sequence under
	// a seeded random shift, so every seed draws a pool that covers the
	// preference simplex alike and the metrics move little from seed to
	// seed. Popularity follows the sequence order, whose every prefix is
	// itself spread evenly, so the hot entries are too.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	shift := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	at := func(i, dim int) float64 { return math.Mod(halton(i, haltonBases[dim])+shift[dim], 1) }
	for i := 1; len(in.queries) < sp.boxes*len(sp.ks); i++ {
		side := sp.sideLo + at(i, 2)*(sp.sideHi-sp.sideLo)
		lo := vec.Vector{
			boxCentre + (2*at(i, 0)-1)*sp.spread - side/2,
			boxCentre + (2*at(i, 1)-1)*sp.spread - side/2,
		}
		hi := vec.Vector{lo[0] + side, lo[1] + side}
		if lo[0] < 0 || lo[1] < 0 || hi[0]+hi[1] > 1 {
			continue // outside the preference simplex
		}
		for _, k := range sp.ks {
			in.queries = append(in.queries, query{k: k, lo: lo, hi: hi, q: toprr.Query{K: k, WR: toprr.PrefBox(lo, hi)}})
		}
	}
	for i := 1; i <= sp.prefs; i++ {
		w := vec.Vector{at(i, 0) / float64(sp.d), at(i, 1) / float64(sp.d)}
		in.prefs = append(in.prefs, pref{w: w, k: sp.ks[i%len(sp.ks)]})
	}
	return in
}

// haltonBases are the coprime bases of the three Halton dimensions: box
// corner (two) and box side.
var haltonBases = [3]int{2, 3, 5}

// halton returns the i-th element of the van der Corput sequence in
// base b.
func halton(i, b int) float64 {
	f, r := 1.0, 0.0
	for ; i > 0; i /= b {
		f /= float64(b)
		r += f * float64(i%b)
	}
	return r
}

// eliteMarket is a dominated-heavy market: elite options in [0.7,1]^d
// above a mass capped at 0.6 per coordinate, shuffled so slot order
// carries no signal.
func eliteMarket(n, d, elite int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, 0, n)
	for i := 0; i < n; i++ {
		p := vec.New(d)
		lo, span := 0.0, 0.6
		if i < elite {
			lo, span = 0.7, 0.3
		}
		for j := range p {
			p[j] = lo + rng.Float64()*span
		}
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// stream generates a workload's op sequence. It is a pure function of
// the spec, the seed and the number of ops drawn, so two runs with one
// seed issue identical ops in identical order; only how far a run gets
// in its time budget differs.
type stream struct {
	sp      *spec
	rng     *rand.Rand
	box     func() int // draws a pooled box
	pref    func() int // draws a pooled preference; nil without a pool
	total   int
	n       int // dataset size as the stream's own Apply batches leave it
	reads   int
	batches int
	hash    uint64
}

func newStream(sp *spec, seed int64, nQueries, nPrefs int) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x0b5))
	s := &stream{sp: sp, rng: rng, n: sp.n, hash: 14695981039346656037}
	s.box = s.picker(nQueries / len(sp.ks))
	if nPrefs > 0 {
		s.pref = s.picker(nPrefs)
	}
	for _, w := range sp.mix {
		s.total += w
	}
	return s
}

// picker draws entries of a pool of n: Zipf-skewed for a skewed
// workload, uniformly otherwise.
func (s *stream) picker(n int) func() int {
	if !s.sp.zipf {
		return func() int { return s.rng.Intn(n) }
	}
	z := rand.NewZipf(s.rng, zipfExponent, zipfOffset, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// query draws a pooled query: a box with a uniform k.
func (s *stream) query() int {
	return s.box()*len(s.sp.ks) + s.rng.Intn(len(s.sp.ks))
}

// next draws the next op.
func (s *stream) next() op {
	var o op
	switch {
	case s.sp.applyEvery > 0 && s.reads == s.sp.applyEvery:
		s.reads = 0
		o = op{kind: kindApply, mutates: s.nextBatch()}
	default:
		s.reads++
		r := s.rng.Intn(s.total)
		k := opKind(0)
		for ; r >= s.sp.mix[k]; k++ {
			r -= s.sp.mix[k]
		}
		o = op{kind: k}
		switch k {
		case kindRank:
			o.pref = s.pref()
		case kindApprox:
			if s.pref != nil {
				o.pref = s.pref()
			} else {
				o.query = s.query()
			}
		case kindBatch:
			for i := 0; i < s.sp.batchSize; i++ {
				o.batch = append(o.batch, s.query())
			}
		default:
			o.query = s.query()
		}
	}
	s.fold(o)
	return o
}

// nextBatch cycles three Apply batch shapes with net-zero size change,
// so the dataset a run ends with does not depend on how many batches it
// reached: pure inserts of fresh options (patch path), pure inserts of
// dominated options (patch path, memos untouched), and a reshape batch
// of deletes and updates (drop path).
func (s *stream) nextBatch() []toprr.Op {
	d, b := s.sp.d, s.sp.batchOps
	ops := make([]toprr.Op, 0, 2*b)
	point := func(scale float64) vec.Vector {
		p := vec.New(d)
		for j := range p {
			p[j] = s.rng.Float64() * scale
		}
		return p
	}
	switch s.batches % 3 {
	case 0:
		for i := 0; i < b; i++ {
			ops = append(ops, toprr.Insert(point(1)))
		}
		s.n += b
	case 1:
		for i := 0; i < b; i++ {
			ops = append(ops, toprr.Insert(point(0.05)))
		}
		s.n += b
	default:
		for i := 0; i < 2*b; i++ {
			ops = append(ops, toprr.Delete(s.rng.Intn(s.n)))
			s.n--
		}
		for i := 0; i < b/2; i++ {
			ops = append(ops, toprr.Update(s.rng.Intn(s.n), point(1)))
		}
	}
	s.batches++
	return ops
}

// fold mixes an op into the stream's running FNV-1a digest, which the
// self-test compares across runs.
func (s *stream) fold(o op) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(s.hash)
	put(uint64(o.kind))
	put(uint64(o.query))
	put(uint64(o.pref))
	for _, q := range o.batch {
		put(uint64(q))
	}
	for _, m := range o.mutates {
		put(uint64(m.Kind))
		put(uint64(m.Index))
		for _, x := range m.Point {
			put(math.Float64bits(x))
		}
	}
	s.hash = h.Sum64()
}
