package sketch

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// cutoffBand is the half-width of a Cutoff's guard band, relative to S*.
const cutoffBand = 1e-6

// cellWeight[b] is the weight 2^−y the harmonic statistic gives the int8
// cell whose byte is b, with y clamped to maxTrackedY as fill clamps it. An
// Empty cell (y = −1) weighs 2. Values below Empty cannot come out of Fill,
// a merge or DecodeDeviation; they take Empty's weight so every byte has
// an entry.
var cellWeight [256]float64

func init() {
	for b := range cellWeight {
		y := max(int(int8(b)), Empty)
		cellWeight[b] = math.Exp2(-float64(min(y, maxTrackedY)))
	}
}

// Cutoff decides threshold questions about max-kernel rows — is the
// estimate of a row at least cut, is the estimate of two rows' union at
// most cut — exactly as MaxEstimator's Estimate and EstimateMerged followed
// by the comparison would, without inverting the estimate.
//
// harmonicMean is strictly decreasing, so an estimate is at most cut
// exactly when the raw statistic S = (1/t)·Σ_i 2^−Y_i is at least
// S* = harmonicMean(cut). A Cutoff computes S* once and answers from S
// alone, one table lookup per cell. Only a statistic inside the guard band
// S*·(1 ± 1e-6) goes to the full inversion. Every answer equals the
// inverting one, for these reasons:
//
//   - The inversion F(S) (invertStatistic) does not increase as S grows, up
//     to its 1e-10 tolerance. It starts at d = 1/S, and each step
//     d ← d·harmonicMean(d)/S increases with d and decreases with S.
//   - Where F converges its error is tiny: at most 2.7e-10 relative for
//     d ≥ 1 on a fine sweep. Below d ≈ 0.96 it stops at its 48-step cap,
//     with error 2.9e-8 at d = 0.75 and 1e-5 at d = 0.5. The smallest cut
//     the decomposition can produce is 0.75 ((1−1.5ξ)Δ with ξ < 1/6 and
//     Δ ≥ 1), and on a sweep of cuts from there to 10⁷, F at the band
//     edges lands at least 1e-6 relative from the cut.
//   - NewCutoff checks this rather than trusting it: it evaluates F at both
//     band edges, and if either lands on the wrong side of cut, that Cutoff
//     runs the full inversion on every row.
//   - Summing S in a different order than the estimator's histogram moves
//     it by at most ~t·2⁻⁵³ relative (2e-13 at t = 1604), far inside the
//     band.
//   - The boundary cases match fill and estimateFromHist: a zero-width row
//     compares 0 against cut; an Empty cell weighs 2 and a cell above 64
//     weighs 2⁻⁶⁴; an all-Empty row has S = 2, the largest any row can
//     have, and estimates to 0, which lies below every cut whose edges
//     pass the check (F is positive).
//
// A Cutoff is built once per wave and read by every worker; only the count
// of inverted decisions is written, atomically. The inverting fallback
// borrows the caller's estimator, so the steady state allocates nothing.
type Cutoff struct {
	cut    float64
	lo, hi float64 // guard band; a statistic in [lo, hi] is inverted
	// exact routes every decision to the inversion because the band-edge
	// check failed, as it does for cuts below ≈0.54 or above ≈1e20 and NaN.
	exact    bool
	inverted atomic.Int64
}

// NewCutoff returns the Cutoff for cut.
func NewCutoff(cut float64) *Cutoff {
	sStar := harmonicMean(cut)
	c := &Cutoff{cut: cut, lo: sStar * (1 - cutoffBand), hi: sStar * (1 + cutoffBand)}
	c.exact = !(invertStatistic(c.lo) > cut && invertStatistic(c.hi) < cut)
	return c
}

// Inverted returns how many decisions so far needed the full inversion:
// statistics inside the guard band, or every decision of a Cutoff whose
// band-edge check failed.
func (c *Cutoff) Inverted() int64 { return c.inverted.Load() }

// AtLeast reports est.Estimate(row) >= cut.
func (c *Cutoff) AtLeast(est *MaxEstimator[int8], row []int8) bool {
	if len(row) == 0 {
		return 0 >= c.cut
	}
	if !c.exact {
		switch s := statistic(row, row); {
		case s > c.hi:
			return false
		case s < c.lo:
			return true
		}
	}
	c.inverted.Add(1)
	return est.Estimate(row) >= c.cut
}

// MergedAtMost reports est.EstimateMerged(a, b) <= cut — the buddy
// predicate's question about the union of two neighborhoods. It panics if
// the lengths differ.
func (c *Cutoff) MergedAtMost(est *MaxEstimator[int8], a, b []int8) bool {
	if len(a) != len(b) {
		panic("sketch: MergedAtMost length mismatch")
	}
	if len(a) == 0 {
		return 0 <= c.cut
	}
	if !c.exact {
		switch s := statistic(a, b); {
		case s > c.hi:
			return true
		case s < c.lo:
			return false
		}
	}
	c.inverted.Add(1)
	return est.EstimateMerged(a, b) <= c.cut
}

// statistic returns S of the pointwise max of two equal-length, non-empty
// rows (statistic(a, a) is S of a). Aligned rows take eight lanes per word
// — a SWAR max, then a table lookup per byte into four independent sums, so
// no add waits on the previous cell's; other rows take the scalar loop.
func statistic(a, b []int8) float64 {
	n := len(a)
	var s0, s1, s2, s3 float64
	i := 0
	if n >= 8 &&
		uintptr(unsafe.Pointer(&a[0]))%8 == 0 &&
		uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		words := n / 8
		aw := unsafe.Slice((*uint64)(unsafe.Pointer(&a[0])), words)
		bw := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
		for w, x := range aw {
			m := swarMax8Word(x, bw[w])
			s0 += cellWeight[uint8(m)] + cellWeight[uint8(m>>32)]
			s1 += cellWeight[uint8(m>>8)] + cellWeight[uint8(m>>40)]
			s2 += cellWeight[uint8(m>>16)] + cellWeight[uint8(m>>48)]
			s3 += cellWeight[uint8(m>>24)] + cellWeight[m>>56]
		}
		i = words * 8
	}
	for ; i < n; i++ {
		s0 += cellWeight[uint8(max(a[i], b[i]))]
	}
	return (s0 + s1 + s2 + s3) / float64(n)
}
