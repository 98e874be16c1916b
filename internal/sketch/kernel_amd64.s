#include "textflag.h"

// AVX2 kernels for kernel_amd64.go. Each processes the longest prefix of
// its rows that is a whole number of 32-cell steps and leaves the rest to
// the caller. Loads and stores are unaligned (VMOVDQU), so rows need no
// alignment. Every kernel ends in VZEROUPPER before returning to SSE code.

// func mergeMax8AVX2(dst, src []int8)
TEXT ·mergeMax8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	ANDQ $~31, CX
	JZ   mergeDone

mergeLoop:
	VMOVDQU (SI), Y0
	VPMAXSB (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mergeLoop
	VZEROUPPER

mergeDone:
	RET

// func mergeMax8PairAVX2(dst, a, b []int8)
TEXT ·mergeMax8PairAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	ANDQ $~31, CX
	JZ   pairDone

pairLoop:
	VMOVDQU (SI), Y0
	VPMAXSB (DX), Y0, Y0
	VPMAXSB (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     pairLoop
	VZEROUPPER

pairDone:
	RET

// WEIGHT4 adds the weights of the 4 clamped cells at off(SP) into acc:
// sign-extend them to int64, form the float64 2^−y from its exponent bits
// (1023 − y) << 52 (Y7 holds 1023 per lane), and add.
#define WEIGHT4(off, acc) \
	VPMOVSXBQ off(SP), Y0; \
	VPSUBQ    Y0, Y7, Y0;  \
	VPSLLQ    $52, Y0, Y0; \
	VADDPD    Y0, acc, acc

// func weightSumAVX2(a, b []int8) float64
//
// The sum of the harmonic weights 2^−y over y = max(a[i], b[i]) clamped to
// [Empty, maxTrackedY], for i in the 32-cell prefix. The 32 clamped cells of
// a step go through a 32-byte stack slot so each group of 4 sign-extends
// with one VPMOVSXBQ; eight accumulators keep the adds independent.
TEXT ·weightSumAVX2(SB), NOSPLIT, $32-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	ANDQ   $~31, CX
	JZ     sumReduce

	// Y5 = Empty (-1) in every byte, Y6 = 64 in every byte, Y7 = 1023 in
	// every quadword.
	VPCMPEQB     Y5, Y5, Y5
	MOVQ         $64, AX
	MOVQ         AX, X6
	VPBROADCASTB X6, Y6
	MOVQ         $1023, AX
	MOVQ         AX, X7
	VPBROADCASTQ X7, Y7

sumLoop:
	VMOVDQU (SI), Y1
	VPMAXSB (DI), Y1, Y1
	VPMAXSB Y5, Y1, Y1
	VPMINSB Y6, Y1, Y1
	VMOVDQU Y1, 0(SP)
	WEIGHT4(0, Y8)
	WEIGHT4(4, Y9)
	WEIGHT4(8, Y10)
	WEIGHT4(12, Y11)
	WEIGHT4(16, Y12)
	WEIGHT4(20, Y13)
	WEIGHT4(24, Y14)
	WEIGHT4(28, Y15)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     sumLoop

sumReduce:
	VADDPD       Y9, Y8, Y8
	VADDPD       Y11, Y10, Y10
	VADDPD       Y13, Y12, Y12
	VADDPD       Y15, Y14, Y14
	VADDPD       Y10, Y8, Y8
	VADDPD       Y14, Y12, Y12
	VADDPD       Y12, Y8, Y8
	VEXTRACTF128 $1, Y8, X0
	VADDPD       X0, X8, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	MOVSD        X0, ret+48(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
