package sketch

import (
	"math"
	"testing"
)

// FuzzSketchMerge throws arbitrary byte strings at the merge kernels. The
// raw bytes decode into int8 rows (the max kernel's full value range,
// including the saturation ceiling, at every offset 0–31 of a shared
// backing), and each path — the dispatcher and the SWAR kernel — must match
// its scalar reference exactly alongside the semilattice laws.
func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0xff, 0x7f, 0x00, 0x80, 0xff, 0xff, 0x01, 0x00})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		w8 := len(data) / 2
		if w8 == 0 {
			return
		}
		// Both rows slice off shared backings at the offset the first byte
		// selects, so aligned and misaligned starts, whole AVX2 steps and
		// tails all fuzz.
		off := int(data[0]) % 32
		aBack := make([]int8, w8+32)
		bBack := make([]int8, w8+32)
		for i := 0; i < w8; i++ {
			aBack[off+i] = int8(data[i])
			bBack[off+i] = int8(data[w8+i])
		}
		a8 := aBack[off : off+w8]
		b8 := bBack[off : off+w8]
		want8 := cloneRow(a8)
		MergeMax8Generic(want8, b8)
		// The paired fold must equal two sequential merges — the identity
		// the collect wave relies on to fold neighbors two at a time.
		wantPair := cloneRow(a8)
		MergeMax8Generic(wantPair, b8)
		MergeMax8Generic(wantPair, want8)
		// dst sits at the same offset, so both rows share one alignment.
		dst := make([]int8, w8+32)[off : off+w8]
		for i, k := range mergeKernels {
			got8 := append(dst[:0], a8...)
			k.merge(got8, b8)
			if !rowsEqual(got8, want8) {
				t.Fatalf("%s != generic (off=%d)\n a=%v\n b=%v\n got=%v\n want=%v", k.name, off, a8, b8, got8, want8)
			}
			pair := append(dst[:0], a8...)
			pairKernels[i].merge(pair, b8, want8)
			if !rowsEqual(pair, wantPair) {
				t.Fatalf("%s != sequential (off=%d)\n a=%v\n b=%v", pairKernels[i].name, off, a8, b8)
			}
		}
		// Semilattice laws on rows canonicalized into the kernel's value
		// domain (the identity law only holds there); derive a third row for
		// associativity by swapping the halves.
		c8 := append(cloneRow(b8[w8/2:]), b8[:w8/2]...)
		checkMergeLaws[int8](t, MaxKernel{}, canonMax8(a8), canonMax8(b8), canonMax8(c8))
	})
}

// canonMax8 folds values below the max kernel's identity (-1) back into its
// value domain while keeping the fuzzer's spread — the result still covers
// the whole legal range [Empty, MaxCell8].
func canonMax8(raw []int8) []int8 {
	row := cloneRow(raw)
	for i, v := range row {
		if v < Empty {
			row[i] = -v - 2
		}
	}
	return row
}

// FuzzDecode hardens the deviation decoder against arbitrary byte strings:
// it must either return a valid row or an error — never panic, never return
// a row disagreeing with a re-encode round trip, and never return one the
// estimator cannot take.
func FuzzDecode(f *testing.F) {
	for i, d := range []int{0, 1, 100} {
		f.Add(EncodeDeviation(mergedRow[int8](MaxKernel{}, 16, d, uint64(i))))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeDeviation(data)
		if err != nil {
			return
		}
		var est MaxEstimator[int8]
		_ = est.Estimate(row)
		// A successfully decoded row must round-trip.
		again, err := DecodeDeviation(EncodeDeviation(row))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !rowsEqual(again, row) {
			t.Fatalf("round trip changed the row\n got=%v\n want=%v", again, row)
		}
	})
}

// FuzzCutoff checks both Cutoff questions against the inverting estimator
// on arbitrary in-contract rows — cells in [Empty, MaxCell8], any width
// including 0, at offsets 0–31 — and cuts of at least 0.75, the
// smallest the decomposition produces. A non-zero nudge instead places the
// cut within nudge·1e-9 (relative) of the merged row's own estimate, which
// puts the statistic in or beside the guard band; the seeds sit just inside
// and just outside it.
func FuzzCutoff(f *testing.F) {
	for i, rel := range []float64{-1.001e-6, -0.999e-6, 0, 0.999e-6, 1.001e-6} {
		for _, cut := range []float64{0.775, 178.125} {
			row := rowWithStatistic(256, int(cut)+1, harmonicMean(cut)*(1+rel), uint64(i))
			raw := make([]byte, len(row))
			for j, y := range row {
				raw[j] = byte(y)
			}
			f.Add(raw, []byte{}, cut, int16(0))
		}
	}
	f.Add([]byte{}, []byte{}, 0.75, int16(0))
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{0x7f}, 1.0, int16(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, []byte{3, 3, 3}, 0.0, int16(700))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, cut float64, nudge int16) {
		width := len(rawA)
		off := len(rawB) % 32
		back := make([]int8, 2*(width+32))
		a := back[off : off+width]
		b := back[width+32+off : width+32+off+width]
		for i := range a {
			a[i] = int8(rawA[i])
			b[i] = Empty
			if i < len(rawB) {
				b[i] = int8(rawB[i])
			}
		}
		copy(a, canonMax8(a))
		copy(b, canonMax8(b))
		if width > 0 {
			checkStatistic(t, a, b)
		}
		merged := cloneRow(a)
		MergeMax8Generic(merged, b)
		var est MaxEstimator[int8]
		if nudge != 0 {
			cut = est.Estimate(merged) * (1 + float64(nudge)*1e-9)
		} else {
			cut = 0.75 + math.Abs(cut)
		}
		if !(cut >= 0.75) || math.IsInf(cut, 0) {
			return
		}
		c := NewCutoff(cut)
		if got, want := c.MergedAtMost(&est, a, b), est.EstimateMerged(a, b) <= cut; got != want {
			t.Fatalf("cut %v, width %d: MergedAtMost = %v, inversion says %v\n a=%v\n b=%v", cut, width, got, want, a, b)
		}
		if got, want := c.AtLeast(&est, merged), est.Estimate(merged) >= cut; got != want {
			t.Fatalf("cut %v, width %d: AtLeast = %v, inversion says %v\n row=%v", cut, width, got, want, merged)
		}
		if got, want := c.AtLeast(&est, a), est.Estimate(a) >= cut; got != want {
			t.Fatalf("cut %v, width %d: AtLeast = %v, inversion says %v\n row=%v", cut, width, got, want, a)
		}
	})
}
