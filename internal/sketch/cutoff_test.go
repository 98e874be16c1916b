package sketch

import (
	"math"
	"math/rand/v2"
	"testing"
)

// rowWithStatistic returns a width-t row whose harmonic statistic S is
// target to within rounding. The first half is the organic sketch of d
// parties; each later cell takes the largest weight 2^−y that still leaves
// every cell after it at least the smallest weight, 2⁻⁶⁴. Targets near the
// S* of a cut close to d leave the greedy half enough room.
func rowWithStatistic(t, d int, target float64, seed uint64) []int8 {
	row := mergedRow[int8](MaxKernel{}, t, d, seed)
	rest := target * float64(t)
	for _, y := range row[:t/2] {
		rest -= cellWeight[uint8(y)]
	}
	for i := t / 2; i < t; i++ {
		floor := float64(t-1-i) * 0x1p-64
		y := Empty
		for y < maxTrackedY && math.Exp2(-float64(y)) > rest-floor {
			y++
		}
		row[i] = int8(y)
		rest -= math.Exp2(-float64(y))
	}
	return row
}

// splitRow returns two rows whose pointwise max is row: each keeps every
// other cell and is Empty elsewhere.
func splitRow(row []int8) (a, b []int8) {
	a, b = cloneRow(row), cloneRow(row)
	for i := range row {
		if i%2 == 0 {
			a[i] = Empty
		} else {
			b[i] = Empty
		}
	}
	return a, b
}

// TestCutoffGuardBand builds rows whose statistic sits just inside and just
// outside the guard band around S* = harmonicMean(cut), from the smallest
// cut the decomposition can produce up, and checks each decision against
// the full inversion. Exactly the rows inside the band are inverted.
func TestCutoffGuardBand(t *testing.T) {
	var est MaxEstimator[int8]
	for _, width := range []int{257, 1604} {
		for _, cut := range []float64{0.75, 0.775, 1.5, 37, 178.125, 2500} {
			sStar := harmonicMean(cut)
			for i, rel := range []float64{-3e-6, -1.001e-6, -0.999e-6, -1e-7, 0, 1e-7, 0.999e-6, 1.001e-6, 3e-6} {
				target := sStar * (1 + rel)
				row := rowWithStatistic(width, max(1, int(cut)), target, uint64(i))
				if s := statistic(row, row); math.Abs(s/target-1) > 1e-12 {
					t.Fatalf("width %d cut %v: built S = %v, want %v", width, cut, s, target)
				}
				a, b := splitRow(row)
				c := NewCutoff(cut)
				if got, want := c.AtLeast(&est, row), est.Estimate(row) >= cut; got != want {
					t.Errorf("width %d cut %v rel %v: AtLeast = %v, inversion says %v", width, cut, rel, got, want)
				}
				if got, want := c.MergedAtMost(&est, a, b), est.EstimateMerged(a, b) <= cut; got != want {
					t.Errorf("width %d cut %v rel %v: MergedAtMost = %v, inversion says %v", width, cut, rel, got, want)
				}
				inBand := int64(0)
				if math.Abs(rel) < cutoffBand {
					inBand = 2
				}
				if c.Inverted() != inBand {
					t.Errorf("width %d cut %v rel %v: %d decisions inverted, want %d", width, cut, rel, c.Inverted(), inBand)
				}
			}
		}
	}
}

// TestCutoffBandEdgesPass pins the premise of Cutoff's correctness argument
// on a fine sweep: every cut from the smallest the decomposition produces
// (0.75) to far past any degree passes the band-edge check, so no reachable
// cut silently falls back to inverting every row.
func TestCutoffBandEdgesPass(t *testing.T) {
	for cut := 0.75; cut < 1e9; cut *= 1.01 {
		if NewCutoff(cut).exact {
			t.Fatalf("cut %v fails the band-edge check", cut)
		}
	}
}

// TestCutoffMatchesEstimate checks both questions against the inverting
// estimator on random rows — widths from 0, saturated cells, aligned and
// misaligned starts (the SWAR and scalar paths) — at random cuts and at
// cuts placed just beside each row's own estimate.
func TestCutoffMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	var est MaxEstimator[int8]
	back := make([]int8, 2*(300+8))
	for trial := 0; trial < 2000; trial++ {
		width := rng.IntN(300)
		off := rng.IntN(8)
		a := back[off : off+width]
		b := back[300+8+off : 300+8+off+width]
		fill := randMaxRow
		if trial%3 == 0 {
			fill = randMaxRowSaturated
		}
		copy(a, fill(rng, width))
		copy(b, fill(rng, width))
		merged := cloneRow(a)
		MergeMax8Generic(merged, b)
		cut := 0.75 + rng.Float64()*400
		if trial%2 == 0 {
			cut = max(0.75, est.Estimate(merged)*(1+(rng.Float64()-0.5)*4e-6))
		}
		c := NewCutoff(cut)
		if got, want := c.AtLeast(&est, merged), est.Estimate(merged) >= cut; got != want {
			t.Fatalf("width %d off %d cut %v: AtLeast = %v, inversion says %v", width, off, cut, got, want)
		}
		if got, want := c.MergedAtMost(&est, a, b), est.EstimateMerged(a, b) <= cut; got != want {
			t.Fatalf("width %d off %d cut %v: MergedAtMost = %v, inversion says %v", width, off, cut, got, want)
		}
	}
}

// TestCutoffBoundaryCases: zero-width rows compare 0 against the cut,
// all-Empty rows estimate to 0, and cuts whose band-edge check fails (0,
// NaN) invert every decision and still answer as the estimator does.
func TestCutoffBoundaryCases(t *testing.T) {
	var est MaxEstimator[int8]
	empty := make([]int8, 64)
	for i := range empty {
		empty[i] = Empty
	}
	for _, cut := range []float64{0, 0.775, 178.125, math.NaN()} {
		c := NewCutoff(cut)
		for _, row := range [][]int8{nil, empty} {
			if got, want := c.AtLeast(&est, row), est.Estimate(row) >= cut; got != want {
				t.Errorf("cut %v, %d cells: AtLeast = %v, want %v", cut, len(row), got, want)
			}
			if got, want := c.MergedAtMost(&est, row, row), est.EstimateMerged(row, row) <= cut; got != want {
				t.Errorf("cut %v, %d cells: MergedAtMost = %v, want %v", cut, len(row), got, want)
			}
		}
		if exact := cut == 0 || math.IsNaN(cut); c.exact != exact {
			t.Errorf("cut %v: exact = %v, want %v", cut, c.exact, exact)
		}
	}
}

// TestCutoffMergedLengthMismatch: like EstimateMerged, the decision refuses
// rows of different widths.
func TestCutoffMergedLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergedAtMost accepted rows of different lengths")
		}
	}()
	var est MaxEstimator[int8]
	NewCutoff(1).MergedAtMost(&est, make([]int8, 4), make([]int8, 5))
}
