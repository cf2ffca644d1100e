// Laptop case study (Section 6.2 / Figure 7 of the paper).
//
// A manufacturer plans a new laptop for two different client types over
// a CNET-like market of 149 rated laptops:
//
//   - designers, who weigh performance heavily: wR = [0.7, 0.8], and
//   - business travellers, who want battery life: wR = [0.1, 0.2].
//
// For each type we compute the region oR where the new model is
// guaranteed a top-3 ranking, then the cost-optimal placement inside it
// (cost = performance^2 + battery^2), and compare with the existing
// laptops that occupy oR.
//
// Run with: go run ./examples/laptop
package main

import (
	"context"
	"fmt"
	"log"

	"toprr/internal/dataset"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

func main() {
	market := dataset.Laptops()
	fmt.Printf("market: %d laptops rated on (performance, battery)\n\n", market.Len())

	scenarios := []struct {
		who    string
		lo, hi float64
	}{
		{"designers (performance-leaning)", 0.7, 0.8},
		{"business travellers (battery-leaning)", 0.1, 0.2},
	}

	// One engine serves both clienteles, sharing the dataset's top-k
	// cache across the queries.
	engine := toprr.NewEngine(market.Pts)
	queries := make([]toprr.Query, len(scenarios))
	for i, sc := range scenarios {
		queries[i] = toprr.Query{K: 3, WR: toprr.PrefBox(vec.Of(sc.lo), vec.Of(sc.hi))}
	}
	resultsBatch, err := engine.SolveBatch(context.Background(), queries)
	if err != nil {
		log.Fatal(err)
	}

	for i, sc := range scenarios {
		fmt.Printf("=== target clientele: %s, wR=[%.1f, %.1f], k=3 ===\n", sc.who, sc.lo, sc.hi)
		res := resultsBatch[i]
		fmt.Printf("oR: %d vertices; solve took %v (|D'|=%d, |Vall|=%d)\n",
			res.OR.NumVertices(), res.Stats.Elapsed, res.Stats.FilteredOptions, res.Stats.VallSize)

		opt, err := res.CostOptimalNew()
		if err != nil {
			log.Fatal(err)
		}
		cost := opt.Dot(opt)
		fmt.Printf("cost-optimal placement: perf=%.2f battery=%.2f (cost %.3f)\n", opt[0], opt[1], cost)

		// Which existing models already sit in oR, and how much cheaper
		// is the optimal new design?
		fmt.Println("existing laptops inside oR (the direct competitors):")
		for i, p := range market.Pts {
			if res.IsTopRanking(p) {
				pc := p.Dot(p)
				fmt.Printf("  %-22s perf=%.2f battery=%.2f cost=%.3f (new design saves %.1f%%)\n",
					market.Label(i), p[0], p[1], pc, (pc-cost)/pc*100)
			}
		}
		fmt.Println()
	}
}
