//go:build !amd64

package sketch

// useAVX2 is false off amd64: the SWAR kernels run everywhere else.
const useAVX2 = false

// The AVX2 kernels exist only on amd64; with useAVX2 false the dispatchers
// never call these.

func mergeMax8AVX2(dst, src []int8)      { panic("sketch: no AVX2 kernel on this architecture") }
func mergeMax8PairAVX2(dst, a, b []int8) { panic("sketch: no AVX2 kernel on this architecture") }

func windowSumAVX2(a, b []int8) (units uint64, shift int, rest float64, m int) {
	panic("sketch: no AVX2 kernel on this architecture")
}
