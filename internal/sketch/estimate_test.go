package sketch

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"clustercolor/internal/parwork"
)

// mergedRow builds the sketch of d parties by folding d singleton fills of
// kernel k — exactly what a collect wave computes for a vertex with d
// admitted neighbors.
func mergedRow[C Cell](k Kernel[C], width, d int, seed uint64) []C {
	row := make([]C, width)
	cell := k.EmptyCell()
	for i := range row {
		row[i] = cell
	}
	tmp := make([]C, width)
	for p := 0; p < d; p++ {
		k.Fill(tmp, parwork.RowSeed(seed, p))
		k.Merge(row, tmp)
	}
	return row
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

// TestEstimatorAccuracy bounds the relative error of the harmonic
// extraction (≈ 1.04/√t) on rows built from known counts.
func TestEstimatorAccuracy(t *testing.T) {
	const trials = 2048
	counts := []int{10, 100, 1000, 20000}
	var est MaxEstimator[int8]
	for i, d := range counts {
		row := mergedRow[int8](MaxKernel{}, trials, d, 0x9e3779b97f4a7c15+uint64(i))
		if e := relErr(est.Estimate(row), float64(d)); e > 0.10 {
			t.Errorf("max/harmonic d=%d: relative error %.3f > 0.10", d, e)
		}
	}
}

// TestEstimateMergedMatchesEstimate pins the fused merge+estimate kernel:
// EstimateMerged(a, b) must produce bit-identical floats to estimating the
// materialized pointwise max, without modifying either input row.
func TestEstimateMergedMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	var est MaxEstimator[int8]
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.IntN(300)
		a := randMaxRow(rng, width)
		b := randMaxRow(rng, width)
		if trial%3 == 0 {
			// Include saturated cells so the fused clamp path is covered too.
			a = randMaxRowSaturated(rng, width)
		}
		aCopy, bCopy := cloneRow(a), cloneRow(b)
		merged := cloneRow(a)
		MergeMax8Generic(merged, b)
		want := est.Estimate(merged)
		got := est.EstimateMerged(a, b)
		if got != want {
			t.Fatalf("EstimateMerged = %v, Estimate(merged) = %v", got, want)
		}
		if !rowsEqual(a, aCopy) || !rowsEqual(b, bCopy) {
			t.Fatal("EstimateMerged modified an input row")
		}
	}
	// Zero-width rows estimate to 0 through both paths.
	if got := est.EstimateMerged(nil, nil); got != 0 {
		t.Fatalf("EstimateMerged(nil, nil) = %v, want 0", got)
	}
}

// TestEstimateMergedLengthMismatch: the fused kernel must refuse rows of
// different widths loudly rather than silently truncating.
func TestEstimateMergedLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EstimateMerged accepted rows of different lengths")
		}
	}()
	var est MaxEstimator[int8]
	est.EstimateMerged(make([]int8, 4), make([]int8, 5))
}

// TestMaxEstimatorSaturated is the saturation guard's estimator half: rows
// clamped at the narrow-width ceiling MaxCell8 — unreachable through organic
// fills, whose values stay ≤ 64 — must still produce finite estimates
// through both the plain and the fused path.
func TestMaxEstimatorSaturated(t *testing.T) {
	var est MaxEstimator[int8]
	saturated := make([]int8, 256)
	for i := range saturated {
		saturated[i] = MaxCell8
	}
	organic := mergedRow[int8](MaxKernel{}, 256, 1000, 77)
	for _, row := range [][]int8{saturated, organic} {
		if got := est.Estimate(row); math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
			t.Fatalf("harmonic estimate on saturated row not finite positive: %v", got)
		}
		if got := est.EstimateMerged(row, saturated); math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
			t.Fatalf("fused estimate on saturated row not finite positive: %v", got)
		}
	}
}

// TestEstimatorsOnEmptyRow: an all-identity row means no party was seen;
// both estimate paths must return 0.
func TestEstimatorsOnEmptyRow(t *testing.T) {
	maxEmpty := make([]int8, 128)
	for i := range maxEmpty {
		maxEmpty[i] = Empty
	}
	var est MaxEstimator[int8]
	if got := est.Estimate(maxEmpty); got != 0 {
		t.Errorf("max/harmonic on empty row: %v, want 0", got)
	}
	if got := est.EstimateMerged(maxEmpty, maxEmpty); got != 0 {
		t.Errorf("fused estimate on empty rows: %v, want 0", got)
	}
}

// TestDeviationBitsExact pins EncodedBits to the materialized encoding:
// encodedBits must equal the bit position the writer ends at, with Encode
// padding only to the next byte.
func TestDeviationBitsExact(t *testing.T) {
	for i, d := range []int{1, 7, 50, 900} {
		row := mergedRow[int8](MaxKernel{}, 257, d, 0xabcdef+uint64(i))
		bits := encodedBits(row)
		if w := deviationWriter(row); w.nbit != bits {
			t.Errorf("d=%d: encodedBits=%d but the writer ends at bit %d", d, bits, w.nbit)
		}
		buf := EncodeDeviation(row)
		if len(buf) != (bits+7)/8 {
			t.Errorf("d=%d: encodedBits=%d but Encode produced %d bytes", d, bits, len(buf))
		}
		back, err := DecodeDeviation(buf)
		if err != nil {
			t.Fatalf("d=%d: decode: %v", d, err)
		}
		if len(back) != len(row) {
			t.Fatalf("d=%d: decode round-trip width %d, want %d", d, len(back), len(row))
		}
		for j := range row {
			if back[j] != row[j] {
				t.Errorf("d=%d: decode round-trip mismatch at cell %d", d, j)
				break
			}
		}
	}
}

// TestKernelEncodedBitsPositive: the kernel must charge at least one bit for
// any row, including the empty one (the wave charges max(bits, 1)).
func TestKernelEncodedBitsPositive(t *testing.T) {
	maxRow := make([]int8, 33)
	for i := range maxRow {
		maxRow[i] = MaxKernel{}.EmptyCell()
	}
	if b := (MaxKernel{}).EncodedBits(maxRow); b <= 0 {
		t.Errorf("max: EncodedBits(empty row) = %d, want > 0", b)
	}
}

// deviationBitsRef is the deviation encoding's bit length for baseline k,
// priced cell by cell: the definition encodedBits replaced, kept as its
// reference.
func deviationBitsRef(row []int8, k int) int {
	n := eliasGammaBits(uint64(len(row))+1) + eliasGammaBits(uint64(k)+2)
	for _, y := range row {
		dev := int(y) - k
		if dev < 0 {
			dev = -dev
		}
		n += 2 + dev
	}
	return n
}

// TestDeviationBaselineIsLowerMedian checks the histogram walk against the
// lower median of the sorted row, on random rows of every kernel width with
// bytes below Empty included, and on the empty row.
func TestDeviationBaselineIsLowerMedian(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	for _, n := range kernelWidths() {
		anyRow := make([]int8, n)
		randAnyRow(rng, anyRow)
		for _, row := range [][]int8{anyRow, randMaxRow(rng, n)} {
			want := 0
			if len(row) > 0 {
				sorted := slices.Clone(row)
				slices.Sort(sorted)
				want = int(sorted[(len(row)-1)/2])
			}
			if got := DeviationBaseline(row); got != want {
				t.Fatalf("width %d: DeviationBaseline = %d, lower median %d\n row=%v", n, got, want, row)
			}
		}
	}
}

// TestEncodedBitsMatchesReference checks the one-pass size against pricing
// every cell at DeviationBaseline's median, on random rows of every kernel
// width (bytes below Empty included, where the baseline header wraps),
// organic collected rows, and all-equal, all-Empty, saturated and
// zero-width rows.
func TestEncodedBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	var rows [][]int8
	for _, n := range kernelWidths() {
		row := make([]int8, n)
		randAnyRow(rng, row)
		rows = append(rows, row, randMaxRow(rng, n), randMaxRowSaturated(rng, n))
	}
	for i, d := range []int{1, 150, 100000} {
		rows = append(rows, mergedRow[int8](MaxKernel{}, acdRowWidth, d, uint64(i)))
	}
	for _, v := range []int8{Empty, 0, 7, maxTrackedY, MaxCell8, -128} {
		row := make([]int8, acdRowWidth)
		for i := range row {
			row[i] = v
		}
		rows = append(rows, row)
	}
	rows = append(rows, nil)
	var sc Scratch[int8]
	for _, row := range rows {
		k := DeviationBaseline(row)
		want := deviationBitsRef(row, k)
		if got := (MaxKernel{}).EncodedBits(row); got != want {
			t.Fatalf("width %d: EncodedBits = %d, reference %d\n row=%v", len(row), got, want, row)
		}
		if got := sc.EncodedBits(row); got != want {
			t.Fatalf("width %d: Scratch.EncodedBits = %d, reference %d", len(row), got, want)
		}
	}
}
