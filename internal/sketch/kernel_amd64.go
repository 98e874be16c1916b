package sketch

// useAVX2 selects the AVX2 kernels of kernel_amd64.s for MergeMax8,
// MergeMax8Pair and the Cutoff statistic on rows of at least 32 cells. It
// is set once at start-up from CPUID and never written again. Race builds
// keep the SWAR kernels: the race detector does not see memory accessed
// from assembly, so only the Go kernels let it check row ownership.
var useAVX2 = !raceEnabled && cpuHasAVX2()

// cpuHasAVX2 makes the test golang.org/x/sys/cpu makes: the CPU has AVX
// and AVX2 (CPUID leaf 1 ECX bit 28, leaf 7 EBX bit 5), and the OS saves
// the YMM registers (OSXSAVE, leaf 1 ECX bit 27, then XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// mergeMax8AVX2 is MergeMax8 on rows of at least 32 cells. Its last step
// merges the row's last 32 cells, some of them a second time, so dst must
// not partially overlap src.
//
//go:noescape
func mergeMax8AVX2(dst, src []int8)

// mergeMax8PairAVX2 is MergeMax8Pair on rows of at least 32 cells; as for
// mergeMax8AVX2, dst must not partially overlap a or b.
//
//go:noescape
func mergeMax8PairAVX2(dst, a, b []int8)

// windowSumAVX2 is weightSumSWAR over the first m cells of two equal-length
// rows of at least 32 cells, returned as units·2^−shift + rest: units sums
// exactly, in integers, the weights of every 32-cell step whose cells lie
// in a 16-value window fixed by the first step, and rest sums the others
// as float64. m is len(a), or len(a)&^31 when a cell of the last len%32
// lies outside the window.
//
//go:noescape
func windowSumAVX2(a, b []int8) (units uint64, shift int, rest float64, m int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
