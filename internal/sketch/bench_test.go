package sketch

import (
	"testing"

	"clustercolor/internal/parwork"
)

// benchRows8 builds an aligned pair of max-kernel rows of the given width.
func benchRows8(width int) (dst, src []int8) {
	var a Arena[int8]
	a.Reset(2, width)
	dst, src = a.Row(0), a.Row(1)
	k := MaxKernel{}
	k.Fill(dst, parwork.RowSeed(1, 0))
	k.Fill(src, parwork.RowSeed(1, 1))
	return dst, src
}

// acdRowWidth is the row width the decomposition runs at the default
// ε = 0.25 on n = 10⁵ vertices: its sketches use the doubled accuracy
// ξ/2 = ε/4, and fingerprint.TrialsFor(0.0625, 10⁵) = 1604 cells.
const acdRowWidth = 1604

// BenchmarkMergeMax8 measures the dispatching merge — AVX2 where the CPU
// has it, the 8-lane SWAR kernel otherwise and under -race — the
// decomposition's hot inner loop, on an arena-aligned row of the width the
// decomposition actually runs (acdRowWidth).
func BenchmarkMergeMax8(b *testing.B) {
	dst, src := benchRows8(acdRowWidth)
	b.SetBytes(int64(2 * len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeMax8(dst, src)
	}
}

// BenchmarkMergeMax8Generic is the scalar reference on the same rows; the
// ratio to BenchmarkMergeMax8 is the kernel's speedup (CI's sketch
// hot-loop microbench logs both).
func BenchmarkMergeMax8Generic(b *testing.B) {
	dst, src := benchRows8(acdRowWidth)
	b.SetBytes(int64(2 * len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeMax8Generic(dst, src)
	}
}

// benchEstimate keeps estimator results observable across iterations.
var benchEstimate float64

// BenchmarkEstimateMerged measures the fused merge+estimate kernel on the
// per-edge hot-path shape: two collected rows whose union the buddy
// predicate thresholds.
func BenchmarkEstimateMerged(b *testing.B) {
	x, y := benchRows8(acdRowWidth)
	var sc Scratch[int8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEstimate += sc.Est.EstimateMerged(x, y)
	}
}

// benchDegree is planted-high's degree scale, and benchJoinCut the buddy
// predicate's cut (1+1.5ξ)Δ there at the default ε = 0.25.
const (
	benchDegree  = 150
	benchJoinCut = 1.1875 * benchDegree
)

// collectedRows8 builds an aligned pair of neighbouring collected rows: each
// folds benchDegree singleton fills, and they share all but 10 of them, so
// their union sits just under benchJoinCut as a buddy edge's does.
func collectedRows8(width int) (x, y []int8) {
	var a Arena[int8]
	a.Reset(3, width)
	x, y, tmp := a.Row(0), a.Row(1), a.Row(2)
	for i := range x {
		x[i], y[i] = Empty, Empty
	}
	k := MaxKernel{}
	for p := 0; p < benchDegree+10; p++ {
		k.Fill(tmp, parwork.RowSeed(4, p))
		if p < benchDegree {
			k.Merge(x, tmp)
		}
		if p >= 10 {
			k.Merge(y, tmp)
		}
	}
	return x, y
}

// BenchmarkEstimateMergedCollected is BenchmarkEstimateMerged, plus the
// compare, on collected rows at the buddy predicate's cut.
func BenchmarkEstimateMergedCollected(b *testing.B) {
	x, y := collectedRows8(acdRowWidth)
	var sc Scratch[int8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Est.EstimateMerged(x, y) <= benchJoinCut {
			benchEstimate++
		}
	}
}

// BenchmarkCutoffMerged decides the buddy predicate on the rows of
// BenchmarkEstimateMerged without inverting; the ratio of the two is the
// saving per edge.
func BenchmarkCutoffMerged(b *testing.B) {
	x, y := benchRows8(acdRowWidth)
	benchCutoffMerged(b, x, y)
}

// BenchmarkCutoffMergedCollected is BenchmarkCutoffMerged on the rows of
// BenchmarkEstimateMergedCollected.
func BenchmarkCutoffMergedCollected(b *testing.B) {
	x, y := collectedRows8(acdRowWidth)
	benchCutoffMerged(b, x, y)
}

// BenchmarkCutoffMergedOutliers is BenchmarkCutoffMergedCollected with one
// cell of every 32-cell step, and the last cell, raised to maxTrackedY,
// outside the window of the AVX2 statistic: every step then adds float64
// weights and the tail goes to the SWAR code, the slowest row the kernel
// can meet.
func BenchmarkCutoffMergedOutliers(b *testing.B) {
	x, y := collectedRows8(acdRowWidth)
	for i := 31; i < len(x); i += 32 {
		x[i] = maxTrackedY
	}
	x[len(x)-1] = maxTrackedY
	benchCutoffMerged(b, x, y)
}

// benchCutoffMerged times MergedAtMost on one row pair at benchJoinCut. It
// fails if a decision needed the inversion, which would time the fallback.
func benchCutoffMerged(b *testing.B, x, y []int8) {
	c := NewCutoff(benchJoinCut)
	var sc Scratch[int8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.MergedAtMost(&sc.Est, x, y) {
			benchEstimate++
		}
	}
	b.StopTimer()
	if c.Inverted() != 0 {
		b.Fatalf("%d of %d decisions fell inside the guard band", c.Inverted(), b.N)
	}
}

// BenchmarkEstimateMergeTwo is the materialize-then-estimate baseline the
// fused kernel replaced; the ratio to BenchmarkEstimateMerged is the fusion
// win.
func BenchmarkEstimateMergeTwo(b *testing.B) {
	x, y := benchRows8(acdRowWidth)
	var sc Scratch[int8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEstimate += sc.Est.Estimate(sc.MergeTwo(x, y))
	}
}

// BenchmarkArenaFill measures per-row counter-stream filling at the current
// parallelism.
func BenchmarkArenaFill(b *testing.B) {
	var a Arena[int8]
	a.Reset(4096, acdRowWidth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Fill(MaxKernel{}, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeMax8Pair measures the paired fold the collect wave uses to
// keep two neighbor-row miss streams in flight; compare against two
// BenchmarkMergeMax8 iterations.
func BenchmarkMergeMax8Pair(b *testing.B) {
	var ar Arena[int8]
	ar.Reset(3, acdRowWidth)
	dst, x, y := ar.Row(0), ar.Row(1), ar.Row(2)
	k := MaxKernel{}
	k.Fill(dst, parwork.RowSeed(3, 0))
	k.Fill(x, parwork.RowSeed(3, 1))
	k.Fill(y, parwork.RowSeed(3, 2))
	b.SetBytes(int64(3 * len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeMax8Pair(dst, x, y)
	}
}
