package core

import (
	"context"

	"toprr/internal/skyband"
	"toprr/internal/vec"
)

// gatedFilter runs the prefilter stage of a solve: the r-skyband of
// Section 6.3, computed against the vertices of wR, which reduces the
// dataset to the candidates D' that can appear in a top-k result
// somewhere in wR. Options.SketchGate may shortcut the sweep: when it
// certifies a candidate list for the solve's dataset generation, the
// exact dominance sweep runs over those candidates only. Either path
// returns the identical candidate set, so the gate never changes a
// solve's output bit.
func gatedFilter(ctx context.Context, p Problem, o Options, st *Stats) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	verts := p.WR.VertexPoints()
	rd := skyband.NewRDomVerts(verts)
	if g := o.SketchGate; g != nil && !o.DisableSketchGate {
		if cands, skipped, ok := g(p.Scorer, verts, p.K); ok {
			pts := make([]vec.Vector, p.Scorer.Len())
			for _, i := range cands {
				pts[i] = p.Scorer.Point(i)
			}
			st.SketchGated = true
			st.SketchSkips = skipped
			return skyband.RSkybandSubset(pts, cands, p.K, rd), nil
		}
	}
	return skyband.RSkyband(datasetPoints(p), p.K, rd), nil
}

// rSkyband is the ungated r-skyband of the problem: the candidate set
// stage 1 produces without a sketch certificate.
func rSkyband(ctx context.Context, p Problem) ([]int, error) {
	return gatedFilter(ctx, p, Options{}, &Stats{})
}

// datasetPoints materializes the problem's option points.
func datasetPoints(p Problem) []vec.Vector {
	pts := make([]vec.Vector, p.Scorer.Len())
	for i := range pts {
		pts[i] = p.Scorer.Point(i)
	}
	return pts
}
