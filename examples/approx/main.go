// Approx: the sketch tier's approximate fast path, end to end. A
// skewed market — a small elite every preference ranks above a large
// dominated mass — is exactly the shape the engine's sketch exploits:
// the monitored entries capture the elite, the folded threshold bounds
// the mass, and
//
//   - ApproxRank answers certified, exact and allocation-free when the
//     k-th monitored score provably beats every folded option,
//   - the same call silently falls back to the exact plane when the
//     margin is too thin (here: k beyond the monitored budget), and
//   - ApproxImpact brackets a hypothetical option's rank and certifies
//     as soon as the interval decides top-k membership.
//
// On uniform data nothing certifies — the sketch cannot separate
// anything from the mass — and every call falls back. The closing
// CacheStats dump shows the tier's economy either way.
//
// Run with: go run ./examples/approx
package main

import (
	"fmt"
	"log"
	"math/rand"

	"toprr/internal/topk"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// market builds n options in d dimensions: all but elite of them capped
// at 0.6 per coordinate, the elite drawn from [0.7, 1]^d so every valid
// preference ranks it above the mass.
func market(rng *rand.Rand, n, elite, d int) []vec.Vector {
	pts := make([]vec.Vector, 0, n)
	for i := 0; i < n-elite; i++ {
		p := vec.New(d)
		for j := range p {
			p[j] = rng.Float64() * 0.6
		}
		pts = append(pts, p)
	}
	for i := 0; i < elite; i++ {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.7 + rng.Float64()*0.3
		}
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func main() {
	rng := rand.New(rand.NewSource(7))
	const (
		n, elite, d = 5000, 24, 4
		k           = 10
	)
	engine := toprr.NewEngine(market(rng, n, elite, d))
	w := vec.Of(0.3, 0.25, 0.2) // reduced preference; w4 = 1 - Σ = 0.25

	// Certified: k is well inside the monitored elite, so the sketch
	// bounds pin the k-th score without touching the 5000-option
	// dataset.
	est, err := engine.ApproxRank(w, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ApproxRank k=%d:   [%.6f, %.6f] certified=%v\n",
		k, est.Lo, est.Hi, est.Certified)

	// The exact plane agrees — the certified answer IS the exact score.
	snap := engine.Snapshot()
	ids, err := engine.RankAt(snap, w, k)
	if err != nil {
		log.Fatal(err)
	}
	exact := topk.ScorePoint(w, snap.Scorer.Point(ids[k-1]))
	fmt.Printf("exact Rank k=%d:   %.6f (option %d)\n", k, exact, ids[k-1])

	// Fallback: k=200 exceeds the monitored budget, so the sketch
	// declines and the engine answers exactly — the interval collapses,
	// Certified is false, correctness is unchanged.
	est, err = engine.ApproxRank(w, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ApproxRank k=200: [%.6f, %.6f] certified=%v (exact fallback)\n",
		est.Lo, est.Hi, est.Certified)

	// Impact: an elite-grade placement is certainly top-k, a mass-grade
	// one certainly is not — both certify from the bounds alone.
	for _, p := range []vec.Vector{
		vec.Of(0.95, 0.95, 0.95, 0.95), // contender
		vec.Of(0.30, 0.30, 0.30, 0.30), // also-ran
	} {
		est, err = engine.ApproxImpact(toprr.ImpactQuery{W: w, P: p, K: k})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ApproxImpact %v: rank in [%.0f, %.0f] certified=%v top-%d=%v\n",
			p, est.Lo, est.Hi, est.Certified, k, est.Hi <= float64(k))
	}

	cs := engine.CacheStats()
	fmt.Printf("\nsketch economy: %d monitored, %d folded, %d certified, %d fallbacks\n",
		cs.SketchEntries, cs.SketchFolded, cs.SketchCertified, cs.SketchFallbacks)
}
