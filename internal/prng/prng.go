// Package prng implements the pseudo-random tools of the paper's Appendix C
// plus the geometric sampling that fingerprinting (Section 5) builds on:
//
//   - geometric random variables of parameter λ (Section 5.1),
//   - k-wise independent polynomial hash families over a prime field,
//   - (ε, s)-min-wise independent hashing via O(log 1/ε)-wise independence
//     (Definition C.1, Lemma C.2),
//   - representative set families (Definition C.5, Lemma C.6) used by
//     TryPseudorandomColors,
//   - seed-describable pseudorandom permutations for the synchronized color
//     trial (Lemma 4.13).
//
// Every object is describable by an O(log n)-bit seed, which is what lets
// the distributed algorithms share them in single messages.
package prng

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Geometric samples a geometric random variable of parameter lambda:
// Pr[X = k] = λ^k − λ^(k+1) for k ≥ 0 (the number of failures before the
// first success where each trial fails with probability λ).
func Geometric(rng *rand.Rand, lambda float64) int {
	k := 0
	for rng.Float64() < lambda {
		k++
	}
	return k
}

// GeometricHalf samples a geometric of parameter 1/2 using the trailing
// zeros of a uniform word, the distribution used by all fingerprints.
func GeometricHalf(rng *rand.Rand) int {
	for {
		w := rng.Uint64()
		if w != 0 {
			return bits.TrailingZeros64(w)
		}
		// All-zero word (probability 2^-64): count 64 failures and retry.
	}
}

// mersennePrime61 is the modulus of the polynomial hash family.
const mersennePrime61 = (1 << 61) - 1

func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// Reduce modulo 2^61-1: (hi*2^64 + lo) mod p with 2^64 ≡ 2^3 (mod p).
	res := (lo & mersennePrime61) + (lo >> 61) + (hi << 3 & mersennePrime61) + (hi >> 58)
	for res >= mersennePrime61 {
		res -= mersennePrime61
	}
	return res
}

// KWiseHash is a k-wise independent hash function: a degree-(k-1) polynomial
// over GF(2^61 - 1). It is describable in k·61 bits (the coefficient seed).
type KWiseHash struct {
	coeffs []uint64
}

// NewKWiseHash draws a uniformly random member of the k-wise independent
// family. k must be at least 1.
func NewKWiseHash(k int, rng *rand.Rand) (*KWiseHash, error) {
	if k < 1 {
		return nil, fmt.Errorf("prng: k-wise independence requires k >= 1, got %d", k)
	}
	coeffs := make([]uint64, k)
	for i := range coeffs {
		coeffs[i] = rng.Uint64() % mersennePrime61
	}
	return &KWiseHash{coeffs: coeffs}, nil
}

// Eval returns the hash of x in [0, 2^61-1).
func (h *KWiseHash) Eval(x uint64) uint64 {
	x %= mersennePrime61
	var acc uint64
	for i := len(h.coeffs) - 1; i >= 0; i-- {
		acc = mulmod61(acc, x)
		acc += h.coeffs[i]
		if acc >= mersennePrime61 {
			acc -= mersennePrime61
		}
	}
	return acc
}

// SeedBits returns the description length of the function in bits.
func (h *KWiseHash) SeedBits() int { return 61 * len(h.coeffs) }

// MinWiseHash is an (ε, s)-min-wise independent function per Lemma C.2: an
// O(log 1/ε)-wise independent polynomial evaluated into [0, n²) so that ties
// are negligible. For a set X and x ∉ X, Pr[h(x) < min h(X)] is within
// (1±ε)/( |X|+1 ).
type MinWiseHash struct {
	h *KWiseHash
	m uint64
}

// NewMinWiseHash draws a min-wise hash for universe [0, n) with accuracy ε.
func NewMinWiseHash(n int, eps float64, rng *rand.Rand) (*MinWiseHash, error) {
	if n < 1 {
		return nil, fmt.Errorf("prng: universe size %d < 1", n)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("prng: eps %v out of (0,1)", eps)
	}
	k := 2
	for p := 1.0; p > eps; p /= 2 {
		k++
	}
	h, err := NewKWiseHash(k, rng)
	if err != nil {
		return nil, err
	}
	m := uint64(n) * uint64(n) * 4
	if m < 16 {
		m = 16
	}
	return &MinWiseHash{h: h, m: m}, nil
}

// Eval hashes id into [0, m).
func (h *MinWiseHash) Eval(id int) uint64 {
	return h.h.Eval(uint64(id)) % h.m
}

// SeedBits returns the description length in bits.
func (h *MinWiseHash) SeedBits() int { return h.h.SeedBits() }

// ArgMin returns the element of ids with the smallest hash (ties broken by
// smaller id), or -1 for an empty set.
func (h *MinWiseHash) ArgMin(ids []int) int {
	best, bestVal := -1, ^uint64(0)
	for _, id := range ids {
		v := h.Eval(id)
		if v < bestVal || (v == bestVal && (best == -1 || id < best)) {
			best, bestVal = id, v
		}
	}
	return best
}
