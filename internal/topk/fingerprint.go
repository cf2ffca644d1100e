package topk

// Region fingerprinting: a quantized, order-insensitive digest of a
// result region's constraint set, so "did this standing region move?"
// is answered by comparing two uint64s instead of materializing and
// diffing the old region. The per-constraint digest reuses the same
// quantized FNV-1a identity the cache planes key their maps with
// (vec.Hash / vec.HashFold at FingerprintQuantum); constraints then
// combine commutatively — each per-constraint key passes through a
// strong 64-bit finalizer before summing and xor-folding — so
// permutations of the same constraint set fingerprint identically while
// near-identical sets (one coefficient nudged past the quantum, one
// constraint added or dropped) diverge with overwhelming probability.
// A collision suppresses a notification (~2^-64 per compared pair), the
// same accepted failure odds as the cache identity itself.

import "toprr/internal/vec"

// FingerprintQuantum is the coordinate quantum region fingerprints are
// computed under — the same 1e-10 the top-k memo keys vertices with, so
// a constraint set is "unchanged" exactly when every coefficient agrees
// within the precision the cache plane already treats as identity.
const FingerprintQuantum = 1e-10

// RegionHash accumulates the fingerprint of one constraint set. The
// zero value is ready to use; Add each halfspace a·x >= b, then read
// Sum. Adding the same constraints in any order yields the same sum.
type RegionHash struct {
	n   int
	sum uint64
	xor uint64
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64,
// so structured FNV outputs decorrelate before the commutative combine
// (a raw sum of FNV digests would cancel on crafted pairs far more
// easily than a sum of avalanched ones).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add folds one constraint a·x >= b into the fingerprint.
func (h *RegionHash) Add(a vec.Vector, b float64) {
	k := mix64(vec.HashFold(a.Hash(FingerprintQuantum), b, FingerprintQuantum))
	h.n++
	h.sum += k
	h.xor ^= k
}

// Len reports the number of constraints added.
func (h *RegionHash) Len() int { return h.n }

// Sum returns the accumulated fingerprint. Distinct constraint
// multisets collide with probability ~2^-64; equal multisets (under
// quantization) always agree.
func (h *RegionHash) Sum() uint64 {
	return mix64(h.sum ^ mix64(h.xor) ^ uint64(h.n))
}
