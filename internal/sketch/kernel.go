package sketch

import (
	"math"
	"math/bits"
	"unsafe"

	"clustercolor/internal/parwork"
)

// Empty is the max kernel's identity cell: every geometric sample is ≥ 0, so
// -1 acts as the identity of max-aggregation.
const Empty = -1

// MaxCell8 is the saturation ceiling of the max kernel's cells. Fill values
// are trailing-zero counts, at most 64, so organic rows never reach it;
// SaturateCell8 defines the behavior for hand-built or adversarially decoded
// values anyway: cells clamp here, merging preserves the ceiling
// (the max of in-range values is in range), and the estimator clamps
// saturated cells into its top histogram bucket, so a saturated row still
// satisfies the merge laws and estimates to a finite value.
const MaxCell8 = int8(math.MaxInt8)

// SaturateCell8 clamps y into the max kernel's cell range
// [Empty, MaxCell8].
func SaturateCell8(y int) int8 {
	if y > int(MaxCell8) {
		return MaxCell8
	}
	if y < Empty {
		return Empty
	}
	return int8(y)
}

// MaxKernel is the paper's Section 5 fingerprint kernel: cells are maxima of
// independent geometric(1/2) samples, merge is the pointwise max, and the
// wire format is the deviation encoding of Lemmas 5.5–5.6. It is the kernel
// every sketch in the repo runs on. Rows are int8 (see the package doc's
// cell-width section): values are at most 64, so the cells are exact.
type MaxKernel struct{}

// Name implements Kernel.
func (MaxKernel) Name() string { return "max" }

// EmptyCell implements Kernel.
func (MaxKernel) EmptyCell() int8 { return Empty }

// Fill draws independent geometric(1/2) samples from the row's counter
// stream: cell j is the trailing zero count of the word RowSeed(rowSeed, j).
// An all-zero word maps to 64 trailing zeros — a legal (astronomically rare)
// sample well inside the cell range; SaturateCell8 guards the clamp
// anyway so the value contract holds even for adversarial fills.
func (MaxKernel) Fill(row []int8, rowSeed uint64) {
	for j := range row {
		row[j] = SaturateCell8(bits.TrailingZeros64(parwork.RowSeed(rowSeed, j)))
	}
}

// Merge implements Kernel via MergeMax8.
func (MaxKernel) Merge(dst, src []int8) { MergeMax8(dst, src) }

// MergePair implements PairMerger: the collect wave's fold is bound by the
// memory latency of fetching scattered neighbor rows, and folding two rows
// per pass keeps two miss streams in flight while touching dst once.
func (MaxKernel) MergePair(dst, a, b []int8) { MergeMax8Pair(dst, a, b) }

// EncodedBits implements Kernel: the deviation encoding of Lemmas 5.5–5.6.
func (MaxKernel) EncodedBits(row []int8) int { return encodedBits(row) }

// MergeMax8 folds src into dst pointwise (dst[i] = max(dst[i], src[i])) and
// panics if the lengths differ. This is the hot inner loop of every
// max-kernel fold, so it is benchmarked in isolation (BenchmarkMergeMax8,
// BENCH_sketch.json).
//
// On x86-64 with AVX2 (useAVX2) 32 cells merge per VPMAXSB, with unaligned
// loads, so any row qualifies; the last len%32 cells, and every cell
// elsewhere and in race builds, take mergeMax8SWAR. Both paths are pinned
// byte-equal to MergeMax8Generic.
func MergeMax8(dst, src []int8) {
	if len(dst) != len(src) {
		panic("sketch: MergeMax8 length mismatch")
	}
	if useAVX2 && len(src) >= 32 {
		mergeMax8AVX2(dst, src)
		n := len(src) &^ 31
		dst, src = dst[n:], src[n:]
	}
	mergeMax8SWAR(dst, src)
}

// MergeMax8Pair folds two source rows into dst in one pass
// (dst[i] = max(dst[i], a[i], b[i])). The result is exactly two MergeMax8
// calls — max is associative — but the single pass reads dst once instead
// of twice and, more importantly for the collect wave's scattered neighbor
// rows, keeps two independent source-row miss streams in flight at once. It
// dispatches as MergeMax8 does.
func MergeMax8Pair(dst, a, b []int8) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("sketch: MergeMax8Pair length mismatch")
	}
	if useAVX2 && len(dst) >= 32 {
		mergeMax8PairAVX2(dst, a, b)
		n := len(dst) &^ 31
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	mergeMax8PairSWAR(dst, a, b)
}

// swarHigh8 masks the sign bit of each byte lane of a word.
const swarHigh8 = 0x8080808080808080

// swarMax8Word returns the per-lane signed max of two words of eight int8
// lanes. No biasing is needed: the decision bit per lane is "signs differ
// and s is negative" (s &^ d at the sign bit) or "signs agree and d's low
// seven bits are the larger" (the borrow-free subtract z, masked to
// same-sign lanes by &^ (d ^ s)).
func swarMax8Word(d, s uint64) uint64 {
	// Borrow-free per-lane subtract: lane = (dlow7 + 0x80) − slow7 stays in
	// [0x01, 0xFF], so its sign bit is dlow7 ≥ slow7 with no cross-lane
	// borrow.
	z := (d | swarHigh8) - (s &^ swarHigh8)
	m := ((s &^ d) | (z &^ (d ^ s))) & swarHigh8
	// Spread each lane's decision bit to a full-lane mask.
	mask := (m - m>>7) | m
	return (d & mask) | (s &^ mask)
}

// mergeMax8SWAR is MergeMax8's portable kernel for equal-length rows. When
// both rows are 8-byte aligned — arena rows always are, see Arena.Reset's
// stride — eight int8 lanes merge per machine word with branch-free SWAR
// compares: sketch maxima are effectively random, so the scalar loop's
// per-cell branch mispredicts about half the time, and removing it is worth
// more than the extra ALU ops. Misaligned or short rows take the scalar
// tail.
func mergeMax8SWAR(dst, src []int8) {
	n := len(src)
	i := 0
	if n >= 16 &&
		uintptr(unsafe.Pointer(&dst[0]))%8 == 0 &&
		uintptr(unsafe.Pointer(&src[0]))%8 == 0 {
		words := n / 8
		dw := unsafe.Slice((*uint64)(unsafe.Pointer(&dst[0])), words)
		sw := unsafe.Slice((*uint64)(unsafe.Pointer(&src[0])), words)
		// Unrolled 4× so four independent ~7-op dependency chains are in
		// flight at once; the rolled loop is latency-bound on one chain.
		w := 0
		for ; w+4 <= words; w += 4 {
			dw[w] = swarMax8Word(dw[w], sw[w])
			dw[w+1] = swarMax8Word(dw[w+1], sw[w+1])
			dw[w+2] = swarMax8Word(dw[w+2], sw[w+2])
			dw[w+3] = swarMax8Word(dw[w+3], sw[w+3])
		}
		for ; w < words; w++ {
			dw[w] = swarMax8Word(dw[w], sw[w])
		}
		i = words * 8
	}
	for ; i < n; i++ {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// mergeMax8PairSWAR is MergeMax8Pair's portable kernel for equal-length
// rows, word-at-a-time under the alignment gate of mergeMax8SWAR.
func mergeMax8PairSWAR(dst, a, b []int8) {
	n := len(dst)
	i := 0
	if n >= 16 &&
		uintptr(unsafe.Pointer(&dst[0]))%8 == 0 &&
		uintptr(unsafe.Pointer(&a[0]))%8 == 0 &&
		uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		words := n / 8
		dw := unsafe.Slice((*uint64)(unsafe.Pointer(&dst[0])), words)
		aw := unsafe.Slice((*uint64)(unsafe.Pointer(&a[0])), words)
		bw := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
		w := 0
		for ; w+2 <= words; w += 2 {
			dw[w] = swarMax8Word(dw[w], swarMax8Word(aw[w], bw[w]))
			dw[w+1] = swarMax8Word(dw[w+1], swarMax8Word(aw[w+1], bw[w+1]))
		}
		for ; w < words; w++ {
			dw[w] = swarMax8Word(dw[w], swarMax8Word(aw[w], bw[w]))
		}
		i = words * 8
	}
	for ; i < n; i++ {
		v := a[i]
		if b[i] > v {
			v = b[i]
		}
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// MergeMax8Generic is the reference scalar merge the AVX2 and SWAR kernels
// are verified against; benchmarks keep it around to report their speedup.
func MergeMax8Generic(dst, src []int8) {
	if len(dst) != len(src) {
		panic("sketch: MergeMax8Generic length mismatch")
	}
	dst = dst[:len(src)]
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}
