package sketch

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// The kernel conformance suite: the max kernel must be a semilattice join
// (identity, idempotent, commutative, associative) — the laws the
// byte-identical-at-any-parallelism contract and the redundant-path safety
// of the waves rest on — and each SWAR merge must agree byte-for-byte with
// its scalar reference on every alignment and length, including the
// saturation ceiling of the cells.

// randMaxRow builds a max-kernel row with realistic value spread (Empty
// through ~18, the range geometric maxima actually occupy).
func randMaxRow(rng *rand.Rand, t int) []int8 {
	row := make([]int8, t)
	for i := range row {
		row[i] = int8(rng.IntN(20)) - 1
	}
	return row
}

// randMaxRowSaturated builds a max-kernel row that mixes organic values with
// cells at and near the narrow-width ceiling MaxCell8.
func randMaxRowSaturated(rng *rand.Rand, t int) []int8 {
	row := randMaxRow(rng, t)
	for i := range row {
		switch rng.IntN(4) {
		case 0:
			row[i] = MaxCell8
		case 1:
			row[i] = MaxCell8 - 1
		}
	}
	return row
}

func rowsEqual[C Cell](a, b []C) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cloneRow[C Cell](a []C) []C {
	out := make([]C, len(a))
	copy(out, a)
	return out
}

// checkMergeLaws asserts the semilattice laws for kernel k on rows a, b, c.
func checkMergeLaws[C Cell](t *testing.T, k Kernel[C], a, b, c []C) {
	t.Helper()
	empty := make([]C, len(a))
	for i := range empty {
		empty[i] = k.EmptyCell()
	}
	// Identity: empty ⊔ a = a and a ⊔ empty = a.
	got := cloneRow(empty)
	k.Merge(got, a)
	if !rowsEqual(got, a) {
		t.Fatalf("%s: empty ⊔ a != a\n a=%v\n got=%v", k.Name(), a, got)
	}
	got = cloneRow(a)
	k.Merge(got, empty)
	if !rowsEqual(got, a) {
		t.Fatalf("%s: a ⊔ empty != a\n a=%v\n got=%v", k.Name(), a, got)
	}
	// Idempotence: a ⊔ a = a.
	got = cloneRow(a)
	k.Merge(got, a)
	if !rowsEqual(got, a) {
		t.Fatalf("%s: a ⊔ a != a\n a=%v\n got=%v", k.Name(), a, got)
	}
	// Commutativity: a ⊔ b = b ⊔ a.
	ab := cloneRow(a)
	k.Merge(ab, b)
	ba := cloneRow(b)
	k.Merge(ba, a)
	if !rowsEqual(ab, ba) {
		t.Fatalf("%s: a ⊔ b != b ⊔ a\n a=%v\n b=%v\n ab=%v\n ba=%v", k.Name(), a, b, ab, ba)
	}
	// Associativity: (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c).
	left := cloneRow(a)
	k.Merge(left, b)
	k.Merge(left, c)
	bc := cloneRow(b)
	k.Merge(bc, c)
	right := cloneRow(a)
	k.Merge(right, bc)
	if !rowsEqual(left, right) {
		t.Fatalf("%s: merge not associative\n a=%v\n b=%v\n c=%v\n left=%v\n right=%v",
			k.Name(), a, b, c, left, right)
	}
}

func TestMaxKernelMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.IntN(40)
		checkMergeLaws[int8](t, MaxKernel{},
			randMaxRow(rng, width), randMaxRow(rng, width), randMaxRow(rng, width))
	}
}

// TestMaxKernelMergeLawsSaturated pins the saturation guard: the semilattice
// laws must keep holding on rows at the narrow-width ceiling — the max of
// in-range values is in range, so MaxCell8 is an absorbing top element, not
// an overflow hazard.
func TestMaxKernelMergeLawsSaturated(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.IntN(40)
		checkMergeLaws[int8](t, MaxKernel{},
			randMaxRowSaturated(rng, width), randMaxRowSaturated(rng, width), randMaxRowSaturated(rng, width))
	}
}

// TestSaturateCell8 pins the clamp: values above the ceiling saturate to
// MaxCell8, values below the identity clamp to Empty, and the organic range
// passes through unchanged.
func TestSaturateCell8(t *testing.T) {
	cases := []struct {
		in   int
		want int8
	}{
		{-1000, Empty}, {-2, Empty}, {Empty, Empty}, {0, 0}, {64, 64},
		{int(MaxCell8), MaxCell8}, {int(MaxCell8) + 1, MaxCell8}, {1 << 20, MaxCell8},
	}
	for _, tc := range cases {
		if got := SaturateCell8(tc.in); got != tc.want {
			t.Errorf("SaturateCell8(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestMergeMax8MatchesGeneric pins the 8-lane SWAR path to the scalar
// reference over every small length (exercising the word body, the tail, and
// the short-row fallback) and over the full int8 value range, including the
// saturation ceiling and the identity.
func TestMergeMax8MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 50; trial++ {
			dst := make([]int8, n)
			src := make([]int8, n)
			for i := 0; i < n; i++ {
				dst[i] = int8(rng.IntN(256))
				src[i] = int8(rng.IntN(256))
			}
			// Sprinkle the values the clamp produces so the lane compare is
			// exercised exactly at the contract's boundary cells.
			if n > 0 {
				dst[rng.IntN(n)] = MaxCell8
				src[rng.IntN(n)] = Empty
			}
			want := cloneRow(dst)
			MergeMax8Generic(want, src)
			got := cloneRow(dst)
			MergeMax8(got, src)
			if !rowsEqual(got, want) {
				t.Fatalf("n=%d: MergeMax8 != generic\n dst=%v\n src=%v\n got=%v\n want=%v",
					n, dst, src, got, want)
			}
		}
	}
}

// TestMergeMax8Misaligned shifts the rows off 8-byte alignment (every offset
// combination of a shared backing) and checks the result never depends on
// which path ran.
func TestMergeMax8Misaligned(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	const n = 41
	for dOff := 0; dOff < 8; dOff++ {
		for sOff := 0; sOff < 8; sOff++ {
			dBack := make([]int8, n+8)
			sBack := make([]int8, n+8)
			for i := range dBack {
				dBack[i] = int8(rng.IntN(256))
				sBack[i] = int8(rng.IntN(256))
			}
			dst := dBack[dOff : dOff+n]
			src := sBack[sOff : sOff+n]
			want := cloneRow(dst)
			MergeMax8Generic(want, src)
			got := cloneRow(dst)
			MergeMax8(got, src)
			if !rowsEqual(got, want) {
				t.Fatalf("offsets (%d,%d): MergeMax8 != generic", dOff, sOff)
			}
		}
	}
}

// TestArenaRowsAligned checks the stride contract the SWAR fast paths rely
// on: every arena row starts on an 8-byte boundary for every width. A
// zero-width arena still has its rows (a zero-trial sample set is n empty
// rows, not zero rows).
func TestArenaRowsAligned(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1099}
	var a8 Arena[int8]
	a8.Reset(9, 0)
	if a8.Rows() != 9 || len(a8.Row(8)) != 0 {
		t.Fatalf("zero-width arena: %d rows, want 9", a8.Rows())
	}
	for _, width := range widths {
		a8.Reset(9, width)
		if a8.Trials() != width || a8.Rows() != 9 {
			t.Fatalf("int8 t=%d: arena shape %dx%d", width, a8.Rows(), a8.Trials())
		}
		for i := 0; i < a8.Rows(); i++ {
			row := a8.Row(i)
			if len(row) != width {
				t.Fatalf("int8 t=%d: row %d has length %d", width, i, len(row))
			}
			if uintptr(unsafe.Pointer(&row[0]))%8 != 0 {
				t.Fatalf("int8 t=%d: row %d not 8-byte aligned", width, i)
			}
		}
	}
}

// TestMergeMax8PairMatchesSequential pins the paired fold to its definition:
// MergeMax8Pair(dst, a, b) must equal two sequential generic merges, over
// random lengths (covering the SWAR gate, the unrolled pairs, and the scalar
// tail), saturated cells, and every alignment combination of the three rows.
func TestMergeMax8PairMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for n := 0; n <= 67; n++ {
		dst := randMaxRow(rng, n)
		a := randMaxRowSaturated(rng, n)
		b := randMaxRow(rng, n)
		want := cloneRow(dst)
		MergeMax8Generic(want, a)
		MergeMax8Generic(want, b)
		got := cloneRow(dst)
		MergeMax8Pair(got, a, b)
		if !rowsEqual(got, want) {
			t.Fatalf("n=%d: MergeMax8Pair != sequential merges", n)
		}
	}
	const n = 41
	for dOff := 0; dOff < 8; dOff++ {
		for aOff := 0; aOff < 8; aOff += 3 {
			for bOff := 0; bOff < 8; bOff += 5 {
				back := func(off int) []int8 {
					bk := make([]int8, n+8)
					for i := range bk {
						bk[i] = int8(rng.IntN(256))
					}
					return bk[off : off+n]
				}
				dst, a, b := back(dOff), back(aOff), back(bOff)
				want := cloneRow(dst)
				MergeMax8Generic(want, a)
				MergeMax8Generic(want, b)
				got := cloneRow(dst)
				MergeMax8Pair(got, a, b)
				if !rowsEqual(got, want) {
					t.Fatalf("offsets (%d,%d,%d): MergeMax8Pair != sequential", dOff, aOff, bOff)
				}
			}
		}
	}
}

// TestMergeMax8LengthMismatch: rows of different widths are refused loudly
// rather than silently truncated.
func TestMergeMax8LengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergeMax8 accepted rows of different lengths")
		}
	}()
	MergeMax8(make([]int8, 8), make([]int8, 4))
}

// TestMergeMax8PairLengthMismatch: all three rows must share one width.
func TestMergeMax8PairLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergeMax8Pair accepted rows of different lengths")
		}
	}()
	MergeMax8Pair(make([]int8, 4), make([]int8, 4), make([]int8, 5))
}
