package sketch

import "math"

// maxTrackedY caps the value range of the estimator's histogram: geometric
// samples are at most 64 (one machine word of trailing zeros), so larger
// values — weighted draws of huge multiplicity, or saturated, hand-built or
// decoded rows up to MaxCell8 — only occur outside organic fills, where
// clamping merely saturates the estimate (a documented finite value; see
// TestMaxEstimatorSaturated).
const maxTrackedY = 64

// logTail[y] = ln(1 − 2^−(y+1)), the log-CDF slope of the max-of-geometrics
// law: P[Y ≤ y] = (1 − 2^−(y+1))^d.
var logTail [maxTrackedY + 2]float64

// negPow2[k] = 2^−(k−1), indexed as the estimator's histogram is (bucket k
// holds value k−1): the weight of every value y ∈ [Empty, maxTrackedY+1]
// that estimateFromHist and harmonicMean sum. A table read is bit for bit
// the math.Exp2 it was filled with, and far cheaper in the Newton loop.
var negPow2 [maxTrackedY + 3]float64

func init() {
	for y := range logTail {
		logTail[y] = math.Log1p(-math.Exp2(-float64(y + 1)))
	}
	for k := range negPow2 {
		negPow2[k] = math.Exp2(-float64(k - 1))
	}
}

// harmonicMean returns E[2^−Y] for Y the maximum of d geometric(1/2)
// samples; it is strictly decreasing in d (≈ c/d for large d).
func harmonicMean(d float64) float64 {
	var sum, prev float64
	for y := 0; y < len(logTail); y++ {
		arg := d * logTail[y] // ≤ 0
		var f float64
		switch {
		case arg < -40:
			f = 0
		case arg > -1e-12:
			f = 1
		default:
			f = math.Exp(arg)
		}
		sum += negPow2[y+1] * (f - prev)
		if f == 1 {
			// All remaining increments vanish.
			return sum
		}
		prev = f
	}
	return sum
}

// MaxEstimator inverts max-kernel rows with the harmonic-sum statistic
// S = (1/t)·Σ_i 2^−Y_i against the exact law E[2^−Y] of the maximum of d
// geometrics — the Flajolet–Martin/HyperLogLog extraction applied to the
// paper's sketch. It uses every trial (empirical error ≈ 1.04/√t, the rate
// fingerprint.TrialsFor is calibrated for) instead of the single-threshold
// count of the Lemma 5.2 proof, whose statistic is ~2× noisier with heavy
// tails at the decision margins the decomposition cares about (experiment E3
// measures both).
//
// The struct is the reusable scratch: a value histogram filled in one pass
// over the row. A MaxEstimator is owned by one goroutine; the zero value is
// ready to use.
//
// A caller that only compares the estimate against a fixed threshold should
// ask a Cutoff instead: it gives the same answer from the raw statistic,
// without the inversion, which is most of the cost of an estimate.
type MaxEstimator[C Cell] struct {
	hist []int
}

// Name identifies the estimator in benchmarks and reports.
func (e *MaxEstimator[C]) Name() string { return "max/harmonic" }

// sizeHist sizes and zeroes the histogram for values up to maxY.
func (e *MaxEstimator[C]) sizeHist(maxY int) {
	size := maxY + 2
	if cap(e.hist) < size {
		e.hist = make([]int, size)
	} else {
		e.hist = e.hist[:size]
		for i := range e.hist {
			e.hist[i] = 0
		}
	}
}

// fill builds the value histogram (hist[k] counts maxima equal to k−1,
// values above maxTrackedY clamped) in one pass. The histogram is always
// sized to the full tracked range — zeroing its 66 fixed buckets is far
// cheaper than the extra max-scan over the row a minimal sizing would need,
// and zero-count buckets contribute nothing downstream.
func (e *MaxEstimator[C]) fill(s []C) {
	e.sizeHist(maxTrackedY)
	for _, y := range s {
		k := int(y)
		if k > maxTrackedY {
			k = maxTrackedY
		}
		e.hist[k+1]++
	}
}

// fillMerged is fill over the pointwise max of two equal-length rows,
// computed on the fly: the histogram it leaves behind is byte-identical to
// fill(max(a, b)) with no merged row ever materialized.
func (e *MaxEstimator[C]) fillMerged(a, b []C) {
	e.sizeHist(maxTrackedY)
	for i, y := range a {
		if b[i] > y {
			y = b[i]
		}
		k := int(y)
		if k > maxTrackedY {
			k = maxTrackedY
		}
		e.hist[k+1]++
	}
}

// estimateFromHist inverts the filled histogram: S = (1/t)·Σ 2^−Y_i, then
// invertStatistic. It allocates nothing beyond the reused histogram.
func (e *MaxEstimator[C]) estimateFromHist(t int) float64 {
	if e.hist[0] == t {
		// No trial saw any element: the counted set is empty.
		return 0
	}
	var sum float64
	for k, c := range e.hist {
		if c > 0 {
			// Index k holds value k−1; the Empty cell (value −1, weight 2)
			// only arises in hand-built rows and pushes d̂ down.
			sum += float64(c) * negPow2[k]
		}
	}
	return invertStatistic(sum / float64(t))
}

// invertStatistic solves harmonicMean(d) = S for d by damped log-Newton
// (harmonicMean(d) ≈ c/d, so each step is a near-exact Newton step in ln d),
// starting at d = 1/S and stopping at a 1e-10 relative residual or after 48
// steps. Cutoff's constructor checks its guard band against this same
// function.
func invertStatistic(S float64) float64 {
	d := 1 / S
	for i := 0; i < 48; i++ {
		g := harmonicMean(d)
		if g <= 0 {
			break
		}
		ratio := g / S
		if math.Abs(ratio-1) < 1e-10 {
			break
		}
		d *= ratio
	}
	return d
}

// Estimate computes the harmonic-sum statistic of the row and inverts it.
func (e *MaxEstimator[C]) Estimate(s []C) float64 {
	t := len(s)
	if t == 0 {
		return 0
	}
	e.fill(s)
	return e.estimateFromHist(t)
}

// EstimateMerged is the fused merge+estimate kernel: it returns
// Estimate(max(a, b)) — bit-identical floats — in one pass over the two
// rows, with no materialized merged row and no separate histogram fill. The
// decomposition's buddy predicate only compares this estimate against a
// cut, so it asks Cutoff.MergedAtMost instead. It panics if the lengths
// differ.
func (e *MaxEstimator[C]) EstimateMerged(a, b []C) float64 {
	if len(a) != len(b) {
		panic("sketch: EstimateMerged length mismatch")
	}
	t := len(a)
	if t == 0 {
		return 0
	}
	e.fillMerged(a, b)
	return e.estimateFromHist(t)
}
