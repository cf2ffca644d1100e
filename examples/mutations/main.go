// Mutations: the engine as a living market. The paper's applications —
// placement, enhancement, market impact — assume the option set changes:
// vendors ship, upgrade and withdraw products. This example drives the
// versioned store through that lifecycle and shows that
//
//   - every mutation publishes a new dataset generation,
//   - solves answer against the generation they pin, so a snapshot taken
//     before a mutation still answers for the old market, and
//   - the engine's warm caches survive mutations incrementally instead
//     of resetting.
//
// Run with: go run ./examples/mutations
package main

import (
	"context"
	"fmt"
	"log"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

func main() {
	ctx := context.Background()

	// The laptop market of Figure 1(a): speed and battery life.
	laptops := []vec.Vector{
		vec.Of(0.9, 0.4), // p1
		vec.Of(0.7, 0.9), // p2
		vec.Of(0.6, 0.2), // p3
		vec.Of(0.3, 0.8), // p4
		vec.Of(0.2, 0.3), // p5
		vec.Of(0.1, 0.1), // p6
	}
	engine := toprr.NewEngine(laptops)
	clientele := toprr.Query{K: 3, WR: toprr.PrefBox(vec.Of(0.2), vec.Of(0.8))}

	// Generation 1: where must a new laptop land to be top-3 for every
	// targeted customer?
	before := engine.Snapshot()
	res, err := engine.SolveAt(ctx, before, clientele)
	if err != nil {
		log.Fatal(err)
	}
	target, err := res.CostOptimalNew()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d: %d laptops, cost-optimal top-3 placement %v\n",
		before.Gen, engine.Len(), target)

	// A competitor ships exactly that laptop.
	gen, err := engine.Apply(ctx, []toprr.Op{toprr.Insert(target)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation %d: competitor shipped %v\n", gen, target)

	// The same query now solves against the crowded market...
	after, err := engine.Solve(ctx, clientele)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  new market: placement %v top-ranking? %v\n", target, after.IsTopRanking(target))

	// ...while the pinned snapshot still answers for the old market.
	old, err := engine.SolveAt(ctx, before, clientele)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  pinned generation %d still reports: %v top-ranking? %v\n",
		before.Gen, target, old.IsTopRanking(target))

	// The incumbent p5 upgrades its battery; p6 is withdrawn.
	gen, err = engine.Apply(ctx, []toprr.Op{
		toprr.Update(4, vec.Of(0.2, 0.95)),
		toprr.Delete(5),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := engine.Solve(ctx, clientele); err != nil {
		log.Fatal(err)
	}
	cs := engine.CacheStats()
	fmt.Printf("generation %d: %d laptops after upgrade + withdrawal\n", gen, engine.Len())
	fmt.Printf("  warm top-k cache carried across generations: %d configs, %d evictions\n",
		cs.TopKConfigs, cs.Evictions)

	// The full history is on the op log.
	fmt.Println("applied-ops log:")
	for _, e := range engine.Log(0) {
		fmt.Printf("  seq %d -> generation %d: %s index=%d point=%v\n",
			e.Seq, e.Gen, e.Op.Kind, e.Op.Index, e.Op.Point)
	}
}
