// Package toprr is the public API of the TopRR engine: exact maximal
// top-ranking regions (Tang et al., PVLDB 2019) over linear top-k
// preference queries, plus the downstream placement tools.
//
// The package is a stable facade over the internal pipeline
// (prefilter → partition → assemble). One-shot queries go through
// Solve; services that answer many queries over the same dataset
// should build an Engine, which reuses per-dataset state (memoized
// top-k results) across queries and batches.
//
//	prob := toprr.NewProblem(points, k, toprr.PrefBox(lo, hi))
//	res, err := toprr.Solve(ctx, prob, toprr.Options{Alg: toprr.TASStar})
//
// All entry points honor context cancellation and deadlines.
//
// # Generations and pinning
//
// An Engine's dataset is mutable and versioned. Every Apply batch is
// atomic — all ops validate or none apply — and publishes exactly one
// new generation; the initial dataset is generation 1. Reads are
// snapshot-isolated: Solve and SolveBatch pin the generation current
// when they start, and Engine.Snapshot + SolveAt/SolveBatchAt pin one
// explicitly across several calls. A pinned snapshot is immutable; a
// solve racing a mutation answers exactly for the generation it was
// pinned to. Holding a Snapshot value is what keeps a generation alive:
// drop it and the garbage collector reclaims the generation's
// copy-on-write state. CacheStats.LiveGenerations counts the
// generations still reachable, so a pin held forever is visible.
//
// # Cache invalidation
//
// The engine shares one cache across queries: memoized top-k results
// keyed by (k, candidate-set) configuration. It is generation-aware and
// advances incrementally with each Apply: only entries naming a mutated
// slot are dropped, plus whole-dataset top-k configurations (any op
// changes dataset membership); the rest of the warm state carries
// forward, because its options are bit-identical in both generations.
// Cache accesses verify the solve's pinned generation, so a stale solve
// can neither read nor publish another generation's results.
// WithCacheLimits bounds the cache; CacheStats reports occupancy and
// evictions.
//
// # Parallelism
//
// A solve runs on one worker unless Options.Workers asks for more; the
// partition stage then processes regions on a channel-scheduled worker
// pool. The region is the same either way, but the traversal order and
// the Seed-dependent split choices may differ, so the constraint list
// can too. SolveBatch answers its queries concurrently
// (WithBatchWorkers).
//
// # Durability
//
// By default an Engine is in-memory: a restart reverts the dataset to
// whatever the process loads next. WithPersistence(dir) makes it
// durable — every Apply batch is write-ahead-logged and fsynced before
// its generation publishes (concurrent batches group-commit behind one
// shared fsync instead of serializing on the disk), OpenEngine
// recovers the dataset from the directory on boot, and a
// snapshot/compaction cycle keeps the log bounded. Engine.Close releases the log cleanly. The recovery
// contract — what is durable when Apply returns, and the crash
// windows — is specified in docs/PERSISTENCE.md.
package toprr
