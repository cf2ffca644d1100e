package toprr

import (
	"context"
	"math/rand"

	"toprr/internal/core"
	"toprr/internal/geom"
	"toprr/internal/lp"
	"toprr/internal/qp"
	"toprr/internal/store"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// Core vocabulary, re-exported so callers never import internal/core.
type (
	// Problem is a TopRR instance: a dataset, a rank threshold k and a
	// convex preference region wR.
	Problem = core.Problem
	// Options tunes a solve; the zero value runs the paper's defaults.
	Options = core.Options
	// Result is the output of a TopRR solve.
	Result = core.Result
	// Stats is solver instrumentation.
	Stats = core.Stats
	// Algorithm selects a TopRR solver (PAC, TAS or TASStar).
	Algorithm = core.Algorithm
	// ImpactVertex is an element of Vall.
	ImpactVertex = core.ImpactVertex
	// Region is oR in H-representation, for downstream constraining.
	Region = core.Region
	// MarketImpactResult is the outcome of the budgeted market-impact
	// search.
	MarketImpactResult = core.MarketImpactResult
	// Assembler is the buffered oR-assembly stage, for replaying a
	// solve's Vall.
	Assembler = core.Assembler
)

// The three TopRR algorithms of the paper.
const (
	PAC     = core.PAC
	TAS     = core.TAS
	TASStar = core.TASStar
)

// Versioned-store vocabulary, re-exported so callers never import
// internal/store. An Engine's dataset is a sequence of generations;
// Apply publishes a new one, Snapshot pins one for reading.
type (
	// Generation numbers dataset versions (the first is 1).
	Generation = store.Generation
	// Snapshot is an immutable view of one dataset generation.
	Snapshot = store.Snapshot
	// Op is one dataset mutation (insert, delete or update).
	Op = store.Op
	// OpKind discriminates dataset mutations.
	OpKind = store.OpKind
	// AppliedOp is one entry of the engine's op log.
	AppliedOp = store.AppliedOp
	// PersistConfig tunes a durable engine (WithPersistenceConfig):
	// data directory, WAL sync mode, compaction thresholds.
	PersistConfig = store.PersistConfig
	// PersistStats reports the durable layer's state (Engine.PersistStats).
	PersistStats = store.PersistStats
	// SyncMode selects the WAL durability level of a durable engine.
	SyncMode = store.SyncMode
)

// The three dataset mutations of Engine.Apply.
const (
	OpInsert = store.OpInsert
	OpDelete = store.OpDelete
	OpUpdate = store.OpUpdate
)

// The WAL sync modes of a durable engine: SyncAlways fsyncs every Apply
// before it returns; SyncNone leaves flushing to the OS page cache.
const (
	SyncAlways = store.SyncAlways
	SyncNone   = store.SyncNone
)

// ParseSyncMode maps a flag value ("always", "none") to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) { return store.ParseSyncMode(s) }

// HasPersistentState reports whether dir already holds a recoverable
// engine (OpenEngine will then ignore its bootstrap dataset), so
// callers can skip loading or generating one. A missing directory is
// simply empty state.
func HasPersistentState(dir string) (bool, error) { return store.HasState(dir) }

// ValidateDatasetName reports whether name is usable as a Registry
// dataset name (1-64 characters of [a-zA-Z0-9._-], starting with a
// letter or digit — a safe path component).
func ValidateDatasetName(name string) error { return store.ValidateDatasetName(name) }

// CheckDataset validates a bootstrap dataset — non-empty, consistent
// dimensions, components finite and in [0,1] — without building
// anything, so a front end can separate a caller's bad dataset (reject
// the request) from a server-side failure to store a good one.
func CheckDataset(pts []vec.Vector) error { return store.CheckDataset(pts) }

// ErrClosed is returned by Engine.Apply after Engine.Close.
var ErrClosed = store.ErrClosed

// ErrDurability marks Apply failures where the batch validated fine but
// could not be write-ahead-logged (a disk fault): the dataset is
// unchanged and the error is the server's, not the request's.
var ErrDurability = store.ErrDurability

// Insert builds an op appending option p (a vendor ships a product).
func Insert(p vec.Vector) Op { return store.Insert(p) }

// Delete builds an op removing option i (a vendor withdraws a product).
// The last option moves into slot i so indices stay dense.
func Delete(i int) Op { return store.Delete(i) }

// Update builds an op replacing option i with p (a vendor upgrades a
// product).
func Update(i int, p vec.Vector) Op { return store.Update(i, p) }

// ClipAssembler is the sequential incremental-clipping assembler, the
// fold every solve runs.
type ClipAssembler = core.ClipAssembler

// ParallelClipAssembler is ClipAssembler under an older name; Shards is
// ignored. It is kept only because the toprrbench module compiles
// against it.
type ParallelClipAssembler struct {
	ClipAssembler
	Shards int
}

// NewProblem assembles a TopRR instance over the given options.
func NewProblem(pts []vec.Vector, k int, wr *geom.Polytope) Problem {
	return core.NewProblem(pts, k, wr)
}

// PrefBox builds a preference region wR as the axis-aligned box
// [lo, hi] in W, intersected with the validity constraints of the
// preference space.
func PrefBox(lo, hi vec.Vector) *geom.Polytope { return core.PrefBox(lo, hi) }

// Solve runs one TopRR query through the full pipeline, honoring
// cancellation and deadlines on ctx.
func Solve(ctx context.Context, p Problem, o Options) (*Result, error) {
	return core.SolveContext(ctx, p, o)
}

// SolveUnion solves TopRR for a non-convex clientele given as a union
// of convex preference regions: each piece is solved concurrently and
// the option regions are intersected (Section 3.1 of the paper).
func SolveUnion(ctx context.Context, pts []vec.Vector, k int, pieces []*geom.Polytope, opt Options) (Region, []*Result, error) {
	return core.SolveUnionContext(ctx, pts, k, pieces, opt)
}

// ReverseTopK computes the monochromatic reverse top-k of option pi
// over wR: the maximal subregions of wR where pi ranks among the top-k.
func ReverseTopK(ctx context.Context, pts []vec.Vector, k int, wr *geom.Polytope, pi int, opt Options) ([]*geom.Polytope, error) {
	return core.ReverseTopKContext(ctx, pts, k, wr, pi, opt)
}

// MarketImpact solves the budgeted market-impact search of Section 3.1:
// the smallest k such that option p can be upgraded within budget to
// rank among the top-k everywhere in wR.
func MarketImpact(ctx context.Context, pts []vec.Vector, wr *geom.Polytope, p vec.Vector, budget float64, maxK int, opt Options) (*MarketImpactResult, error) {
	return core.MarketImpactContext(ctx, pts, wr, p, budget, maxK, opt)
}

// UTKFilter computes exactly the options appearing in at least one
// top-k result over wR (the fourth filtering alternative of Section
// 6.3).
func UTKFilter(ctx context.Context, pts []vec.Vector, k int, wr *geom.Polytope) ([]int, error) {
	return core.UTKFilterContext(ctx, pts, k, wr)
}

// FilterSizes reports the candidate-set sizes behind Figure 12: |D'|
// after the r-skyband filter alone, and after root-level Lemma 5.
func FilterSizes(p Problem) (rSkyband, withLemma5 int) { return core.FilterSizes(p) }

// CostOptimalNew returns the cheapest placement in oR under the
// quadratic manufacturing-cost model.
func CostOptimalNew(or *geom.Polytope) (vec.Vector, error) { return core.CostOptimalNew(or) }

// Enhance returns the minimum-modification upgrade of an existing
// option p into oR.
func Enhance(or *geom.Polytope, p vec.Vector) (vec.Vector, float64, error) {
	return core.Enhance(or, p)
}

// Rank returns the rank a new option placed at o would attain under
// reduced weight vector w — the brute-force oracle for validation.
func Rank(scorer *topk.Scorer, w, o vec.Vector) int { return core.Rank(scorer, w, o) }

// VerifyTopRanking samples the preference region and checks that o
// ranks within the top k at every sample; it returns the first
// violating weight vector, or nil when all samples pass.
func VerifyTopRanking(p Problem, o vec.Vector, samples int, rng *rand.Rand) vec.Vector {
	return core.VerifyTopRanking(p, o, samples, rng)
}

// Counters is a snapshot of process-wide work counters, for benchmark
// and service instrumentation.
type Counters struct {
	RegionsProcessed int64 // regions examined by the partition stage
	LPSolves         int64 // simplex invocations
	QPSolves         int64 // quadratic-program solves
}

// ReadCounters snapshots the process-wide work counters. Deltas between
// two snapshots attribute work to the interval.
func ReadCounters() Counters {
	return Counters{
		RegionsProcessed: core.RegionsProcessed(),
		LPSolves:         lp.Solves(),
		QPSolves:         qp.Solves(),
	}
}

// Sub returns the counter delta c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		RegionsProcessed: c.RegionsProcessed - prev.RegionsProcessed,
		LPSolves:         c.LPSolves - prev.LPSolves,
		QPSolves:         c.QPSolves - prev.QPSolves,
	}
}
