// Package core implements the paper's primary contribution: exact
// solutions to the Top-Ranking Region problem (TopRR, Definition 1).
//
// Given a dataset D, a value k and a convex preference region wR, TopRR
// computes the maximal region oR of the option space where a new option
// is guaranteed to rank among the top-k for every weight vector in wR.
// The package provides the three algorithms the paper evaluates:
//
//   - PAC  — the partition-and-convert baseline (Section 3.4),
//   - TAS  — the test-and-split approach (Section 4), and
//   - TAS* — optimized test-and-split (Section 5), with the consistent
//     top-λ pruning of Lemma 5, the optimized region testing of
//     Lemma 7, and k-switch splitting-hyperplane selection
//     (Definition 4),
//
// plus the downstream tools of the introduction: cost-optimal placement
// of a new option, minimum-cost enhancement of an existing option, and
// the budgeted market-impact search.
//
// A solve runs as a three-stage pipeline — Prefilter reduces the
// dataset to the candidates that can appear in any top-k result over
// wR, Partition recursively splits wR on score-tie hyperplanes until
// every region has an invariant top-k outcome, and Assemble intersects
// the impact halfspaces into oR (Theorem 1). The pipeline is fixed, and
// every entry point honors context cancellation.
//
// # Generation pinning
//
// A Problem binds a topk.Scorer — one immutable dataset generation —
// and the whole solve computes against it; the engine above this
// package may publish newer generations mid-solve without affecting
// correctness.
package core
