// Package fingerprint holds the paper-level pieces of the Section 5
// fingerprint: approximately counting in cluster graphs by aggregating
// maxima of independent geometric random variables.
//
// A fingerprint is a row of t per-trial maxima of geometric(1/2) samples.
// Maxima are idempotent under merging, so fingerprints survive the
// redundant-path aggregation hazards of Section 1.1. Estimation recovers the
// count d within (1±ξ) w.h.p. per Lemma 5.2, and the deviation encoding of
// Lemmas 5.5–5.6 serializes a row in O(t + log log d) bits.
//
// Rows are the int8 max-kernel rows of internal/sketch, which owns every
// mechanism: the merge (MergeMax8), the arenas and the collect wave, the
// estimator, Cutoff and the deviation encoding. What stays here is the
// paper's vocabulary: the sample draw (Draw) and the Lemma 5.2 trial budget
// (TrialsFor).
package fingerprint

import (
	"fmt"
	"math"
	"math/rand/v2"

	"clustercolor/internal/prng"
)

// Draw fills row with one party's independent geometric(1/2) samples
// (X_{v,1..t}), one prng.GeometricHalf call per cell in cell order. A sample
// is the trailing-zero count of a non-zero word, at most 63, so the max
// kernel's int8 cells hold it exactly.
func Draw(row []int8, rng *rand.Rand) {
	for i := range row {
		row[i] = int8(prng.GeometricHalf(rng))
	}
}

// TrialsFor returns the number of trials t needed for accuracy ξ and failure
// probability about n^-c, per Lemma 5.2: t = Θ(ξ⁻² log n). The lemma's
// literal constant (200/ξ² · ln n) is a proof artifact; the estimator's
// empirical relative error is ≈ 1.1/√t, so a calibrated constant keeps the
// same Θ(ξ⁻² log n) shape at simulation-friendly sizes.
func TrialsFor(xi float64, n int) (int, error) {
	if !(xi > 0 && xi < 1) {
		return 0, fmt.Errorf("fingerprint: xi %v out of (0,1)", xi)
	}
	if n < 2 {
		n = 2
	}
	t := int(math.Ceil(6.0/(xi*xi))) + 4*int(math.Ceil(math.Log2(float64(n))))
	if t < 64 {
		t = 64
	}
	return t, nil
}
