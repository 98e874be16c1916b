#include "textflag.h"

// AVX2 kernels for kernel_amd64.go. Loads and stores are unaligned
// (VMOVDQU), so rows need no alignment. Each kernel takes rows of at least
// 32 cells; a row's last len%32 cells are covered by one more 32-cell step
// over its last 32 cells, which overlaps cells already done. Every kernel
// ends in VZEROUPPER, and only VEX-encoded instructions touch the X and Y
// registers, so no legacy SSE instruction ever runs with dirty upper
// halves.

// func mergeMax8AVX2(dst, src []int8)
//
// The last step merges cells that are merged already, which max leaves
// unchanged, provided dst does not partially overlap src.
TEXT ·mergeMax8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ CX, BX
	ANDQ $31, BX
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
	TESTQ   BX, BX
	JZ      mergeEnd
	VMOVDQU -32(SI)(BX*1), Y0
	VPMAXSB -32(DI)(BX*1), Y0, Y0
	VMOVDQU Y0, -32(DI)(BX*1)

mergeEnd:
	VZEROUPPER

mergeDone:
	RET

// func mergeMax8PairAVX2(dst, a, b []int8)
TEXT ·mergeMax8PairAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ CX, BX
	ANDQ $31, BX
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
	TESTQ   BX, BX
	JZ      pairEnd
	VMOVDQU -32(SI)(BX*1), Y0
	VPMAXSB -32(DX)(BX*1), Y0, Y0
	VPMAXSB -32(DI)(BX*1), Y0, Y0
	VMOVDQU Y0, -32(DI)(BX*1)

pairEnd:
	VZEROUPPER

pairDone:
	RET

// weightHi and weightLo are the VPSHUFB tables of windowSumAVX2, one
// 16-byte lane repeated for both halves of a YMM register: a cell k steps
// into its window weighs 2^(15−k) units, whose high byte weightHi[k] is
// 2^(7−k) for k < 8 and whose low byte weightLo[k] is 2^(15−k) for k ≥ 8.
DATA weightHi<>+0(SB)/8, $0x0102040810204080
DATA weightHi<>+8(SB)/8, $0
DATA weightHi<>+16(SB)/8, $0x0102040810204080
DATA weightHi<>+24(SB)/8, $0
GLOBL weightHi<>(SB), RODATA|NOPTR, $32

DATA weightLo<>+0(SB)/8, $0
DATA weightLo<>+8(SB)/8, $0x0102040810204080
DATA weightLo<>+16(SB)/8, $0
DATA weightLo<>+24(SB)/8, $0x0102040810204080
GLOBL weightLo<>(SB), RODATA|NOPTR, $32

// tailMask from offset r is 32−r bytes 0xFF, then r bytes 0: it marks the
// cells of a row's last 32 that the whole steps already counted.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// UNITS adds the units of the 32 window offsets k in Y2 (each 0–15, or
// with bit 7 set to weigh 0) to the high-byte and low-byte sums Y10 and
// Y11, as one 64-bit sum per 8 cells (VPSADBW against Y12 = 0). Clobbers
// Y0.
#define UNITS \
	VPSHUFB Y2, Y3, Y0;   \
	VPSHUFB Y2, Y4, Y2;   \
	VPSADBW Y12, Y0, Y0;  \
	VPSADBW Y12, Y2, Y2;  \
	VPADDQ  Y0, Y10, Y10; \
	VPADDQ  Y2, Y11, Y11

// WEIGHT4 adds the float64 weights of the 4 clamped cells at off(SP) into
// acc: sign-extend them to int64 and form 2^−y from its exponent bits
// (1023 − y) << 52 (Y7 holds 1023 per lane).
#define WEIGHT4(off, acc) \
	VPMOVSXBQ off(SP), Y0; \
	VPSUBQ    Y0, Y7, Y0;  \
	VPSLLQ    $52, Y0, Y0; \
	VADDPD    Y0, acc, acc

// func windowSumAVX2(a, b []int8) (units uint64, shift int, rest float64, m int)
//
// The harmonic weight sum Σ 2^−y over y = max(a[i], b[i]) clamped to
// [Empty, maxTrackedY], for i < m, as units·2^−shift + rest. The window is
// [base, base+15], where base is the minimum of the first 32 cells minus
// 2, clamped to [−1, 49], and shift = base + 15. A 32-cell step whose cells
// all lie in the window adds its weights to units exactly: each cell
// k = y − base weighs 2^(15−k) units, looked up as two bytes. The int8
// wrap of y − base lands outside [0, 15] for every cell outside the
// window, so one VPTEST against 0xF0 finds them. A step with a cell
// outside adds float64 weights to rest instead. The row's last len%32
// cells are looked up from its last 32 with the counted ones masked to
// weigh 0; if one of them lies outside the window, m stops at len&^31 and
// the caller sums the rest.
TEXT ·windowSumAVX2(SB), NOSPLIT, $32-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ CX, R8
	MOVQ CX, R9
	ANDQ $31, R9
	ANDQ $~31, CX

	// base = clamp(min(first 32 cells) − 2, −1, 49), in AX and in every
	// byte of Y8.
	VMOVDQU      (SI), Y1
	VPMAXSB      (DI), Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPMINSB      X2, X1, X1
	VPSRLDQ      $8, X1, X2
	VPMINSB      X2, X1, X1
	VPSRLDQ      $4, X1, X2
	VPMINSB      X2, X1, X1
	VPSRLDQ      $2, X1, X2
	VPMINSB      X2, X1, X1
	VPSRLDQ      $1, X1, X2
	VPMINSB      X2, X1, X1
	VMOVD        X1, AX
	MOVBQSX      AX, AX
	SUBQ         $2, AX
	MOVQ         $-1, BX
	CMPQ         AX, BX
	CMOVQLT      BX, AX
	MOVQ         $49, BX
	CMPQ         AX, BX
	CMOVQGT      BX, AX
	VMOVD        AX, X8
	VPBROADCASTB X8, Y8
	ADDQ         $15, AX
	MOVQ         AX, shift+56(FP)

	// Y3, Y4 = the unit tables, Y9 = 0xF0 in every byte, Y12 = 0,
	// Y6 = maxTrackedY in every byte, Y7 = 1023 in every quadword.
	VMOVDQU      weightHi<>(SB), Y3
	VMOVDQU      weightLo<>(SB), Y4
	MOVQ         $0xF0, BX
	VMOVD        BX, X9
	VPBROADCASTB X9, Y9
	VPXOR        Y12, Y12, Y12
	MOVQ         $64, BX
	VMOVD        BX, X6
	VPBROADCASTB X6, Y6
	MOVQ         $1023, BX
	VMOVQ        BX, X7
	VPBROADCASTQ X7, Y7

	// Y10, Y11 = high-byte and low-byte unit sums; Y5, Y13–Y15 = float
	// weights of the steps with a cell outside the window.
	VPXOR  Y10, Y10, Y10
	VPXOR  Y11, Y11, Y11
	VXORPD Y5, Y5, Y5
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

windowLoop:
	VMOVDQU (SI), Y1
	VPMAXSB (DI), Y1, Y1
	VPSUBB  Y8, Y1, Y2
	VPTEST  Y9, Y2
	JNZ     windowOutside
	UNITS

windowNext:
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  windowLoop

	// The last r = len%32 cells: the row's last 32 cells, with the 32 − r
	// counted ones marked by the tail mask (Y0) and set to 0xFF, which
	// weighs 0.
	MOVQ    R8, BX
	TESTQ   R9, R9
	JZ      windowReduce
	VMOVDQU -32(SI)(R9*1), Y1
	VPMAXSB -32(DI)(R9*1), Y1, Y1
	VPSUBB  Y8, Y1, Y2
	LEAQ    tailMask<>(SB), DX
	VMOVDQU (DX)(R9*1), Y0
	VPANDN  Y9, Y0, Y1
	VPTEST  Y1, Y2
	JNZ     windowTailOutside
	VPOR    Y0, Y2, Y2
	UNITS
	JMP     windowReduce

windowTailOutside:
	ANDQ $~31, BX

windowReduce:
	MOVQ BX, m+72(FP)

	// units = 256·Σhigh + Σlow.
	VPSLLQ       $8, Y10, Y10
	VPADDQ       Y11, Y10, Y10
	VEXTRACTI128 $1, Y10, X11
	VPADDQ       X11, X10, X10
	VPSHUFD      $0x4E, X10, X11
	VPADDQ       X11, X10, X10
	VMOVQ        X10, AX
	MOVQ         AX, units+48(FP)

	VADDPD       Y14, Y13, Y13
	VADDPD       Y15, Y5, Y5
	VADDPD       Y5, Y13, Y13
	VEXTRACTF128 $1, Y13, X0
	VADDPD       X0, X13, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	VMOVSD       X0, rest+64(FP)
	RET

	// A step with a cell outside the window: clamp the cells to
	// [Empty, maxTrackedY] and add their float64 weights.
windowOutside:
	VPCMPEQB Y0, Y0, Y0
	VPMAXSB  Y0, Y1, Y1
	VPMINSB  Y6, Y1, Y1
	VMOVDQU  Y1, 0(SP)
	WEIGHT4(0, Y5)
	WEIGHT4(4, Y13)
	WEIGHT4(8, Y14)
	WEIGHT4(12, Y15)
	WEIGHT4(16, Y5)
	WEIGHT4(20, Y13)
	WEIGHT4(24, Y14)
	WEIGHT4(28, Y15)
	JMP      windowNext

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
