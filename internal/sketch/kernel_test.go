package sketch

import (
	"math/rand/v2"
	"os"
	"regexp"
	"strings"
	"testing"
	"unsafe"
)

// The kernel conformance suite: the max kernel must be a semilattice join
// (identity, idempotent, commutative, associative) — the laws the
// byte-identical-at-any-parallelism contract and the redundant-path safety
// of the waves rest on — and each merge path, the dispatcher (AVX2 where the
// CPU has it) and the SWAR kernel, must agree byte-for-byte with its scalar
// reference on every alignment and length, including the saturation ceiling
// of the cells.

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

// mergeKernels are the MergeMax8 paths pinned to MergeMax8Generic: the
// dispatcher (the AVX2 kernel plus a SWAR tail where useAVX2 holds) and the
// portable SWAR kernel every other build runs.
var mergeKernels = []struct {
	name  string
	merge func(dst, src []int8)
}{{"MergeMax8", MergeMax8}, {"mergeMax8SWAR", mergeMax8SWAR}}

// pairKernels are the MergeMax8Pair paths, dispatcher and SWAR.
var pairKernels = []struct {
	name  string
	merge func(dst, a, b []int8)
}{{"MergeMax8Pair", MergeMax8Pair}, {"mergeMax8PairSWAR", mergeMax8PairSWAR}}

// kernelWidths covers every length up to 200 — short rows, whole 32-cell
// AVX2 steps, SWAR words and scalar tails in every combination — plus the
// decomposition's width (acdRowWidth = 50·32 + 4).
func kernelWidths() []int {
	ws := make([]int, 0, 202)
	for n := 0; n <= 200; n++ {
		ws = append(ws, n)
	}
	return append(ws, acdRowWidth)
}

// randAnyRow fills row with arbitrary bytes, about a quarter of them the
// cells the kernels compare or clamp at: Empty, maxTrackedY (64), MaxCell8,
// and bytes below Empty.
func randAnyRow(rng *rand.Rand, row []int8) {
	edges := [...]int8{Empty, maxTrackedY, MaxCell8, Empty - 1, -128}
	for i := range row {
		row[i] = int8(rng.IntN(256))
		if rng.IntN(4) == 0 {
			row[i] = edges[rng.IntN(len(edges))]
		}
	}
}

// TestKernelPath logs which kernels this build dispatches to, so a test log
// shows whether the AVX2 path ran.
func TestKernelPath(t *testing.T) {
	t.Logf("useAVX2 = %v (race build: %v)", useAVX2, raceEnabled)
	if raceEnabled && useAVX2 {
		t.Fatal("a race build dispatches to the AVX2 kernels")
	}
}

// TestAssemblyIsVEXOnly fails on any instruction of kernel_amd64.s that
// names an X register without a VEX (V) mnemonic. A legacy SSE instruction
// that runs while a YMM register's upper half is dirty stalls on the state
// transition, and one rule for the whole file is simpler than tracking where
// VZEROUPPER makes an exception safe.
func TestAssemblyIsVEXOnly(t *testing.T) {
	src, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	xreg := regexp.MustCompile(`\bX([0-9]|[12][0-9]|3[01])\b`)
	label := regexp.MustCompile(`^\w+:`)
	for i, line := range strings.Split(string(src), "\n") {
		line, _, _ = strings.Cut(line, "//")
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, stmt := range strings.Split(strings.TrimSuffix(strings.TrimSpace(line), "\\"), ";") {
			stmt = strings.TrimSpace(label.ReplaceAllString(strings.TrimSpace(stmt), ""))
			if xreg.MatchString(stmt) && !strings.HasPrefix(stmt, "V") {
				t.Errorf("kernel_amd64.s:%d: %q names an X register without a VEX encoding", i+1, stmt)
			}
		}
	}
}

// TestMergeMax8MatchesGeneric pins each MergeMax8 path to the scalar
// reference over every kernel width and the full int8 value range,
// including the saturation ceiling, the identity, and bytes below it.
func TestMergeMax8MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, k := range mergeKernels {
		for _, n := range kernelWidths() {
			dst := make([]int8, n)
			src := make([]int8, n)
			for trial := 0; trial < 8; trial++ {
				randAnyRow(rng, dst)
				randAnyRow(rng, src)
				want := cloneRow(dst)
				MergeMax8Generic(want, src)
				got := cloneRow(dst)
				k.merge(got, src)
				if !rowsEqual(got, want) {
					t.Fatalf("%s n=%d: != generic\n dst=%v\n src=%v\n got=%v\n want=%v",
						k.name, n, dst, src, got, want)
				}
			}
		}
	}
}

// TestMergeMax8Misaligned shifts the rows by every offset 0–31 of a shared
// backing — off the SWAR kernel's 8-byte alignment and across the AVX2
// kernel's 32-byte steps — and checks the result never depends on which
// path ran and no cell of the backing outside dst is written.
func TestMergeMax8Misaligned(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	const n = 100
	dBack := make([]int8, n+32)
	sBack := make([]int8, n+32)
	for _, k := range mergeKernels {
		for dOff := 0; dOff < 32; dOff++ {
			for sOff := 0; sOff < 32; sOff++ {
				randAnyRow(rng, dBack)
				randAnyRow(rng, sBack)
				dst := dBack[dOff : dOff+n]
				src := sBack[sOff : sOff+n]
				want := cloneRow(dBack)
				MergeMax8Generic(want[dOff:dOff+n], src)
				k.merge(dst, src)
				if !rowsEqual(dBack, want) {
					t.Fatalf("%s offsets (%d,%d): backing != generic merge of the window", k.name, dOff, sOff)
				}
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

// TestMergeMax8PairMatchesSequential pins each paired-fold path to its
// definition: MergeMax8Pair(dst, a, b) must equal two sequential generic
// merges, over every kernel width, the full int8 value range, and every
// offset 0–31 of dst and of a against b, writing nothing of dst's backing
// outside dst.
func TestMergeMax8PairMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	check := func(name string, merge func(dst, a, b []int8), dst, a, b []int8) {
		t.Helper()
		want := cloneRow(dst)
		MergeMax8Generic(want, a)
		MergeMax8Generic(want, b)
		merge(dst, a, b)
		if !rowsEqual(dst, want) {
			t.Fatalf("%s n=%d: != sequential merges\n a=%v\n b=%v", name, len(dst), a, b)
		}
	}
	for _, k := range pairKernels {
		for _, n := range kernelWidths() {
			dst, a, b := make([]int8, n), make([]int8, n), make([]int8, n)
			for trial := 0; trial < 4; trial++ {
				randAnyRow(rng, dst)
				randAnyRow(rng, a)
				randAnyRow(rng, b)
				check(k.name, k.merge, dst, a, b)
			}
		}
		const n = 100
		dBack, aBack, bBack := make([]int8, n+32), make([]int8, n+32), make([]int8, n+32)
		for dOff := 0; dOff < 32; dOff++ {
			for aOff := 0; aOff < 32; aOff++ {
				bOff := (aOff*7 + dOff) % 32
				randAnyRow(rng, dBack)
				randAnyRow(rng, aBack)
				randAnyRow(rng, bBack)
				before := cloneRow(dBack)
				check(k.name, k.merge, dBack[dOff:dOff+n], aBack[aOff:aOff+n], bBack[bOff:bOff+n])
				if !rowsEqual(dBack[:dOff], before[:dOff]) || !rowsEqual(dBack[dOff+n:], before[dOff+n:]) {
					t.Fatalf("%s offsets (%d,%d,%d): wrote outside dst", k.name, dOff, aOff, bOff)
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

// TestMergeTwoLengthMismatch: the scratch merge refuses rows of different
// widths instead of returning a row with a's tail or indexing past a.
func TestMergeTwoLengthMismatch(t *testing.T) {
	for _, lens := range [][2]int{{4, 2}, {2, 4}} {
		func() {
			defer func() {
				if r := recover(); r != "sketch: MergeTwo length mismatch" {
					t.Errorf("MergeTwo(%d, %d cells): recovered %v", lens[0], lens[1], r)
				}
			}()
			var sc Scratch[int8]
			sc.MergeTwo(make([]int8, lens[0]), make([]int8, lens[1]))
		}()
	}
}
