// Package topk implements linear top-k queries over an option dataset,
// following the scoring model of the paper (Section 3.1): options are
// points in [0,1]^d, a preference is a normalized weight vector, and the
// score of option p under weights w is S_w(p) = Σ_j w[j]·p[j].
//
// Because Σ_j w[j] = 1, the last weight is derived and preferences live
// in the (d-1)-dimensional *preference space* W. All functions in this
// package take such reduced weight vectors.
//
// # Scorers as generation snapshots
//
// A Scorer wraps one immutable option set. The versioned store
// (internal/store) publishes exactly one Scorer per dataset generation,
// and a solve pinned to a generation keeps scoring against that Scorer
// no matter how many successors writers publish — the Scorer's identity
// (its pointer) *is* the generation pin. Code that caches derived
// results therefore keys trust on the Scorer pointer, never on
// generation numbers alone.
//
// # Caches, the registry, and invalidation rules
//
// A Cache memoizes top-k results per preference-space vertex for one
// (k, active-set) configuration. The Registry interns these caches per
// dataset so queries sharing a configuration share the memoized work,
// and moves them across generations under two rules:
//
//   - GetFor hands an interned cache only to a solve pinned to the
//     registry's current generation (checked by Scorer pointer under the
//     registry lock); older pinned solves fall back to solve-local
//     caches, so no result computed against one generation is ever
//     served to another whose options could differ.
//   - Advance(sc, dirty) drops exactly the configurations whose active
//     set touches a dirty slot, plus whole-dataset (nil active)
//     configurations — any mutation changes dataset membership. Every
//     other configuration is carried forward by pointer and rebound to
//     the new Scorer: its active options are bit-identical in both
//     generations, so its memoized results, and all future computations
//     by either side, are identical under both scorers.
//
// Both the per-cache vertex count and the interned-configuration count
// are bounded (SetLimits); past a limit, work is computed without being
// retained and surfaces as Evictions rather than unbounded memory.
package topk
