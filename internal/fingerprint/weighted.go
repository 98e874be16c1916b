package fingerprint

import (
	"fmt"
	"math"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/sketch"
)

// This file implements Lemma 9.4: approximating weighted neighborhood sums
// W_v = Σ_{u∈N(v)} α_{u→v}·x_u for 2^-b-integral weights x_u = k_u/2^b.
// Conceptually each party contributes k_u independent geometric samples;
// the maximum of the whole collection estimates Σk_u, and dividing by 2^b
// recovers the weighted sum. A party's contribution is sampled directly
// from the max-of-k distribution, so the cost stays O(t) per party
// regardless of k.

// MaxGeometricOf samples max of k independent geometric(1/2) variables in
// O(1) expected time via inverse-transform sampling:
// Pr[max < y] = (1 − 2^−y)^k. The sample is at most about ⌈53 + log₂k⌉ − 1,
// below 117 for any int64 k (64 for k = 1), so it fits an int8 cell;
// SaturateCell8 guards the conversion anyway.
func MaxGeometricOf(k int64, rng *rand.Rand) int8 {
	if k <= 0 {
		return sketch.Empty
	}
	if k == 1 {
		v := rng.Uint64()
		// Trailing zeros of one uniform word; unlike prng.GeometricHalf,
		// an all-zero word counts as 64 instead of being redrawn.
		if v == 0 {
			return 64
		}
		n := 0
		for v&1 == 0 {
			n++
			v >>= 1
		}
		return int8(n)
	}
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	// CDF: Pr[max ≤ y] = (1 − 2^−(y+1))^k, so the inverse transform is
	// X = min{y ≥ 0 : 2^−(y+1) ≤ 1 − u^{1/k}} = ⌈−log₂(tail)⌉ − 1.
	root := math.Pow(u, 1.0/float64(k))
	tail := 1 - root
	if tail <= 0 {
		// Numerical underflow for huge k: use the asymptotic
		// 1 − u^{1/k} ≈ −ln(u)/k.
		tail = -math.Log(u) / float64(k)
	}
	y := math.Ceil(-math.Log2(tail)) - 1
	if y < 0 {
		y = 0
	}
	return sketch.SaturateCell8(int(y))
}

// ApproxWeightedSum implements Lemma 9.4 on a cluster graph: every vertex v
// estimates W_v = Σ_{u∈N(v)} α(v,u)·x_u where x_u = weights[u]/2^b (alpha
// nil means all ones). The result is within (1±ξ)W_v w.h.p. for
// t = Θ(ξ⁻² log n) trials. With unit weights and b = 0 it is Lemma 5.7's
// approximate count of the admitted neighbors.
//
// Each party's row holds, per trial, the maximum of its k_u geometric
// samples (MaxGeometricOf), drawn vertex by vertex in cell order; one
// sketch.Collect wave folds them. Collect evaluates alpha concurrently, so
// alpha must be safe for concurrent calls and must not depend on evaluation
// order.
func ApproxWeightedSum(cg *cluster.CG, phase string, xi float64, b int,
	weights []int64, alpha func(v, u int) bool, rng *rand.Rand) ([]float64, error) {
	if b < 0 || b > 62 {
		return nil, fmt.Errorf("fingerprint: integrality exponent %d out of [0,62]", b)
	}
	n := cg.H.N()
	if len(weights) != n {
		return nil, fmt.Errorf("fingerprint: %d weights for %d vertices", len(weights), n)
	}
	for v, k := range weights {
		if k < 0 {
			return nil, fmt.Errorf("fingerprint: negative weight %d at vertex %d", k, v)
		}
	}
	t, err := TrialsFor(xi, n)
	if err != nil {
		return nil, err
	}
	var samples, rows sketch.Arena[int8]
	samples.Reset(n, t)
	for v := 0; v < n; v++ {
		row := samples.Row(v)
		for i := range row {
			row[i] = MaxGeometricOf(weights[v], rng)
		}
	}
	var opts sketch.CollectOptions
	if alpha != nil {
		opts.Pred = func(v, u, _ int) bool { return alpha(v, u) }
	}
	if _, err := sketch.Collect(cg, phase, sketch.MaxKernel{}, &samples, &rows, opts); err != nil {
		return nil, err
	}
	scale := float64(int64(1) << uint(b))
	out := make([]float64, n)
	var est sketch.MaxEstimator[int8]
	for v := range out {
		out[v] = est.Estimate(rows.Row(v)) / scale
	}
	return out, nil
}
