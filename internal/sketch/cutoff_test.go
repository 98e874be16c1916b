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

// statisticRef is S of the pointwise max of two non-empty rows, summed
// cell by cell in row order from the cellWeight table.
func statisticRef(a, b []int8) float64 {
	var s float64
	for i := range a {
		s += cellWeight[uint8(max(a[i], b[i]))]
	}
	return s / float64(len(a))
}

// statKernels are the statistic paths checked against statisticRef: the
// dispatcher (the window kernel plus any SWAR tail where useAVX2 holds),
// the SWAR kernel alone and, where useAVX2 holds, the window kernel alone.
var statKernels = []struct {
	name string
	stat func(a, b []int8) float64
}{
	{"statistic", statistic},
	{"weightSumSWAR", func(a, b []int8) float64 { return weightSumSWAR(a, b) / float64(len(a)) }},
	{"windowSumAVX2", windowStatistic},
}

// windowStatistic is S from windowSumAVX2 alone: the cells it leaves, and
// rows under 32 cells or without AVX2, are summed by statisticRef's loop
// instead of by weightSumSWAR.
func windowStatistic(a, b []int8) float64 {
	if !useAVX2 || len(a) < 32 {
		return statisticRef(a, b)
	}
	units, shift, rest, m := windowSumAVX2(a, b)
	s := math.Ldexp(float64(units), -shift) + rest
	if m < len(a) {
		s += statisticRef(a[m:], b[m:]) * float64(len(a)-m)
	}
	return s / float64(len(a))
}

// windowModel returns the window base windowSumAVX2 must pick for a, b —
// the minimum of the first 32 merged cells minus 2, clamped to [−1, 49] —
// and the number of cells it must sum: all of them, unless one of the last
// len%32 lies outside [base, base+15].
func windowModel(a, b []int8) (base, m int) {
	lo := MaxCell8
	for i := range 32 {
		lo = min(lo, max(a[i], b[i]))
	}
	base = min(max(int(lo)-2, -1), 49)
	n := len(a)
	for i := n &^ 31; i < n; i++ {
		if y := int(max(a[i], b[i])); y < base || y > base+15 {
			return base, n &^ 31
		}
	}
	return base, n
}

// checkStatistic fails unless every statistic path is within 1e-12 relative
// of statisticRef on a, b: each weight is exact, so the paths differ only
// in the order of the additions, at most ~t·2⁻⁵³ relative.
func checkStatistic(t *testing.T, a, b []int8) {
	t.Helper()
	want := statisticRef(a, b)
	for _, k := range statKernels {
		if got := k.stat(a, b); math.Abs(got/want-1) > 1e-12 {
			t.Fatalf("%s width %d: S = %v, reference %v\n a=%v\n b=%v", k.name, len(a), got, want, a, b)
		}
	}
}

// TestStatisticMatchesReference checks each statistic path over every
// kernel width, the full int8 value range (cells above 64 weigh 2⁻⁶⁴, cells
// at or below Empty weigh 2), every offset 0–31 of a against b, and every
// window the AVX2 kernel can pick. Rows of one repeated value pin each
// clamp on its own: in a mixed row the 2⁻⁶⁴ cells are too light to show.
func TestStatisticMatchesReference(t *testing.T) {
	for _, v := range []int8{-128, Empty - 1, Empty, 0, 63, maxTrackedY, maxTrackedY + 1, MaxCell8} {
		for _, n := range []int{1, 31, 32, 33, acdRowWidth} {
			row := make([]int8, n)
			for i := range row {
				row[i] = v
			}
			checkStatistic(t, row, row)
		}
	}
	rng := rand.New(rand.NewPCG(33, 34))
	for _, n := range kernelWidths()[1:] {
		a, b := make([]int8, n), make([]int8, n)
		for trial := 0; trial < 4; trial++ {
			randAnyRow(rng, a)
			randAnyRow(rng, b)
			checkStatistic(t, a, b)
			checkStatistic(t, a, a)
		}
	}
	// Offsets, on arbitrary rows and on rows whose cells all lie in [3, 16],
	// inside the window of any base the first step can pick from them.
	const n = 100
	aBack, bBack := make([]int8, n+32), make([]int8, n+32)
	for aOff := 0; aOff < 32; aOff++ {
		for bOff := 0; bOff < 32; bOff++ {
			randAnyRow(rng, aBack)
			randAnyRow(rng, bBack)
			checkStatistic(t, aBack[aOff:aOff+n], bBack[bOff:bOff+n])
			for i := range aBack {
				aBack[i], bBack[i] = int8(3+rng.IntN(14)), int8(3+rng.IntN(14))
			}
			checkStatistic(t, aBack[aOff:aOff+n], bBack[bOff:bOff+n])
		}
	}
	// The window kernel through every base it can pick, −1 to 49, each set
	// by the first step's minimum (base+2), on rows of three whole steps
	// plus every tail length 0–31. Each row has one probe cell, in a or in
	// b, in the first step, a middle step, the part of the last 32 cells
	// already counted, or the row's last cell: just outside the window
	// (base−1, base+16), on its edges (base, base+15), or at a clamp
	// (Empty, −128, 64, 65, 127). With AVX2 the base and the cells the
	// kernel summed are checked against windowModel, so both ends of the
	// tail ran.
	for base := -1; base <= 49; base++ {
		for r := 0; r < 32; r++ {
			n := 96 + r
			for _, v := range []int{base - 1, base, base + 15, base + 16, Empty, -128, maxTrackedY, maxTrackedY + 1, int(MaxCell8)} {
				for _, pos := range []int{7, 40, n - 32, n - 1} {
					a, b := make([]int8, n), make([]int8, n)
					for i := range a {
						a[i] = int8(base + 2 + rng.IntN(14))
						b[i] = int8(base + 2 + rng.IntN(14))
					}
					a[rng.IntN(32)], b[rng.IntN(32)] = int8(base+2), int8(base+2)
					a[pos], b[pos] = -128, -128
					if pos%2 == 0 {
						a[pos] = int8(v)
					} else {
						b[pos] = int8(v)
					}
					checkStatistic(t, a, b)
					if useAVX2 {
						wantBase, wantM := windowModel(a, b)
						if _, shift, _, m := windowSumAVX2(a, b); shift != wantBase+15 || m != wantM {
							t.Fatalf("base %d n %d probe %d at %d: shift %d, m %d; want %d, %d",
								base, n, v, pos, shift, m, wantBase+15, wantM)
						}
					}
				}
			}
		}
	}
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
