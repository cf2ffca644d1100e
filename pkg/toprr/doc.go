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
// # The sharded solve plane
//
// An engine's solve plane is sharded (WithShards; default derived from
// GOMAXPROCS): the option set splits into stable content-hashed
// shards, each with its own top-k memo, and solves fan out with one
// worker per shard (capped at GOMAXPROCS) over the channel scheduler,
// assembling through the per-shard constraint-intersection merge stage. Sharded and unsharded solves
// produce identical regions; sharding buys parallelism without
// cache-lock contention, per-shard incremental invalidation under
// mutations (an insert invalidates one shard, not the whole
// whole-dataset configuration), split cache budgets, and the per-shard
// breakdowns in CacheStats.ShardStats and Stats.ShardStats. A durable
// engine persists the shard count; a reopened dataset keeps its
// layout.
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
