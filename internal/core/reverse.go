package core

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"toprr/internal/geom"
	"toprr/internal/topk"
	"toprr/internal/vec"
)

// ReverseTopK computes the monochromatic reverse top-k of option index
// pi over preference region wR: the maximal subregions of wR in whose
// every preference pi ranks among the top-k. This is the query of Tang
// et al. (SIGMOD 2017, reference [41] of the paper), obtained here as a
// by-product of the kIPR partitioning machinery: within each kIPR the
// top-k set is constant, so pi's membership is decided at any one
// vertex.
//
// The returned polytopes are disjoint up to shared boundaries and their
// union is exactly {w in wR : pi in top-k at w}.
func ReverseTopK(pts []vec.Vector, k int, wr *geom.Polytope, pi int, opt Options) ([]*geom.Polytope, error) {
	return ReverseTopKContext(context.Background(), pts, k, wr, pi, opt)
}

// ReverseTopKContext is ReverseTopK honoring cancellation and deadlines
// on ctx.
func ReverseTopKContext(ctx context.Context, pts []vec.Vector, k int, wr *geom.Polytope, pi int, opt Options) ([]*geom.Polytope, error) {
	p := NewProblem(pts, k, wr)
	opt.Alg = TAS // kIPR partitioning without Lemma 5/7 shortcuts, which
	// could otherwise accept regions where pi drifts in and out of the
	// k-th rank.
	opt = opt.withDefaults()
	s := &solver{
		prob: p,
		opt:  opt,
		rng:  rand.New(rand.NewSource(opt.Seed + 1)),
		vall: make(map[uint64]ImpactVertex),
	}
	s.stats.InputOptions = p.Scorer.Len()
	active, err := rSkyband(ctx, p)
	if err != nil {
		return nil, err
	}
	// pi itself must stay in the candidate set even if the filter would
	// drop it (its membership is the question being answered).
	hasPi := false
	for _, idx := range active {
		if idx == pi {
			hasPi = true
			break
		}
	}
	if !hasPi {
		active = append(active, pi)
	}
	s.stats.FilteredOptions = len(active)

	// Collect confirmed regions through the accept hook. Membership is
	// decided at the centroid, a strictly interior point: region
	// vertices sit on score-tie hyperplanes by construction, where the
	// deterministic tie-break could misstate pi's (interior) membership.
	var (
		outMu sync.Mutex
		out   []*geom.Polytope
	)
	s.onAccept = func(region *geom.Polytope, cache *topk.Cache) {
		r := p.Scorer.TopK(region.Centroid(), cache.K(), cache.Active())
		if r.Contains(pi) {
			outMu.Lock()
			out = append(out, region)
			outMu.Unlock()
		}
	}
	root := regionCtx{region: wr, cache: s.newCache(k, active)}
	if err := s.drive(ctx, root, time.Now()); err != nil {
		return nil, err
	}
	return out, nil
}
