//go:build !purego

#include "textflag.h"

// AVX2 int8 dot kernels. Each int8 pair is sign-extended to int16
// (VPMOVSXBW), multiplied and pairwise-summed into int32 lanes
// (VPMADDWD; the products are ≤ 127² so the int16→int32 pair sum cannot
// saturate — this is why VPMADDUBSW, which saturates, is never used),
// and accumulated with VPADDD. int32 addition wraps mod 2³² and is
// therefore associative, so any lane split and any reduction order
// returns the bit-identical integer the pure-Go reference computes,
// for every input including lengths past MaxDotLenI8.

// func dotI8SIMD(a, b *int8, n int) int32
// n must be a positive multiple of 8.
TEXT ·dotI8SIMD(SB), NOSPLIT, $0-28
	MOVQ  a+0(FP), SI
	MOVQ  b+8(FP), DX
	MOVQ  n+16(FP), CX
	VPXOR Y0, Y0, Y0

	CMPQ CX, $32
	JL   blk16

loop32:
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DX), Y2
	VPMADDWD  Y2, Y1, Y1
	VPADDD    Y1, Y0, Y0
	VPMOVSXBW 16(SI), Y2
	VPMOVSXBW 16(DX), Y3
	VPMADDWD  Y3, Y2, Y2
	VPADDD    Y2, Y0, Y0
	ADDQ      $32, SI
	ADDQ      $32, DX
	SUBQ      $32, CX
	CMPQ      CX, $32
	JGE       loop32

blk16:
	CMPQ      CX, $16
	JL        reduce
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DX), Y2
	VPMADDWD  Y2, Y1, Y1
	VPADDD    Y1, Y0, Y0
	ADDQ      $16, SI
	ADDQ      $16, DX
	SUBQ      $16, CX

reduce:
	// fold the high YMM half into XMM before any VEX-128 op can zero it
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0

	// remaining 8-element chunk (CX is now 0 or 8)
	CMPQ      CX, $8
	JL        hsum
	VPMOVSXBW (SI), X1
	VPMOVSXBW (DX), X2
	VPMADDWD  X2, X1, X1
	VPADDD    X1, X0, X0

hsum:
	VPSHUFD $0xEE, X0, X1
	VPADDD  X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VPADDD  X1, X0, X0
	VZEROUPPER
	MOVL    X0, AX
	MOVL    AX, ret+24(FP)
	RET

// func sweep4I8AboveSIMD(f *int8, stride int, u *int8, n16, n8, tail int, ut *int8, scale, offset, bias *float64, qscale, sumQ, tau float64, nrows int, rows *int32, scores *float64) int
//
// The fused threshold-aware sweep: per block of four rows, the exact
// int32 dots over all of k (16-code steps, one optional 8-code chunk,
// then the overlapping tail load against the zero-padded query tail in
// X10), the combine of combineI8 in vector form — VCVTDQ2PD is exact,
// and every multiply and add rounds separately, never FMA — the compare
// !(s < tau) (VCMPPD predicate 5, NLT_US: true for ties and unordered
// lanes), and a branch-free emission of the surviving lanes. Each lane is
// written at the current count and the count advances by the lane's mask
// bit, so a write never lands past the lane's own row index.
TEXT ·sweep4I8AboveSIMD(SB), NOSPLIT, $0-136
	MOVQ         f+0(FP), R8
	MOVQ         stride+8(FP), BX
	MOVQ         u+16(FP), SI
	MOVQ         n16+24(FP), DX
	MOVQ         tail+40(FP), DI
	MOVQ         ut+48(FP), AX
	VPMOVSXBW    (AX), X10
	VBROADCASTSD qscale+80(FP), Y12
	VBROADCASTSD sumQ+88(FP), Y13
	VBROADCASTSD tau+96(FP), Y14
	XORQ         R12, R12            // row index of the block
	XORQ         R13, R13            // survivors emitted

block:
	LEAQ  (R8)(BX*1), R9
	LEAQ  (R8)(BX*2), R10
	LEAQ  (R9)(BX*2), R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  CX, CX
	TESTQ DX, DX
	JZ    fold

loop16:
	VPMOVSXBW (SI)(CX*1), Y4
	VPMOVSXBW (R8)(CX*1), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R9)(CX*1), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW (R10)(CX*1), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVSXBW (R11)(CX*1), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y3, Y3
	ADDQ      $16, CX
	CMPQ      CX, DX
	JLT       loop16

fold:
	// fold the high YMM halves into XMM before any VEX-128 op zeroes them
	VEXTRACTI128 $1, Y0, X5
	VPADDD       X5, X0, X0
	VEXTRACTI128 $1, Y1, X5
	VPADDD       X5, X1, X1
	VEXTRACTI128 $1, Y2, X5
	VPADDD       X5, X2, X2
	VEXTRACTI128 $1, Y3, X5
	VPADDD       X5, X3, X3

	CMPQ      CX, n8+32(FP)
	JGE       tailchunk
	VPMOVSXBW (SI)(CX*1), X4
	VPMOVSXBW (R8)(CX*1), X5
	VPMADDWD  X4, X5, X5
	VPADDD    X5, X0, X0
	VPMOVSXBW (R9)(CX*1), X5
	VPMADDWD  X4, X5, X5
	VPADDD    X5, X1, X1
	VPMOVSXBW (R10)(CX*1), X5
	VPMADDWD  X4, X5, X5
	VPADDD    X5, X2, X2
	VPMOVSXBW (R11)(CX*1), X5
	VPMADDWD  X4, X5, X5
	VPADDD    X5, X3, X3

tailchunk:
	TESTQ     DI, DI
	JS        hsum
	VPMOVSXBW (R8)(DI*1), X5
	VPMADDWD  X10, X5, X5
	VPADDD    X5, X0, X0
	VPMOVSXBW (R9)(DI*1), X5
	VPMADDWD  X10, X5, X5
	VPADDD    X5, X1, X1
	VPMOVSXBW (R10)(DI*1), X5
	VPMADDWD  X10, X5, X5
	VPADDD    X5, X2, X2
	VPMOVSXBW (R11)(DI*1), X5
	VPMADDWD  X10, X5, X5
	VPADDD    X5, X3, X3

hsum:
	VPHADDD   X1, X0, X0
	VPHADDD   X3, X2, X2
	VPHADDD   X2, X0, X0
	VCVTDQ2PD X0, Y0
	MOVQ      scale+56(FP), AX
	VMULPD    (AX)(R12*8), Y12, Y6 // m = qscale·scale
	VMULPD    Y0, Y6, Y6           // a = m·d
	MOVQ      offset+64(FP), AX
	VMULPD    (AX)(R12*8), Y13, Y7 // c = offset·Σq
	VADDPD    Y7, Y6, Y6           // s = a + c
	MOVQ      bias+72(FP), AX
	VADDPD    (AX)(R12*8), Y6, Y6  // s + bias
	VCMPPD    $5, Y14, Y6, Y7      // !(s < tau)
	VMOVMSKPD Y7, AX
	TESTQ     AX, AX
	JNZ       emit

next:
	ADDQ $4, R12
	LEAQ (R8)(BX*4), R8
	CMPQ R12, nrows+104(FP)
	JLT  block
	VZEROUPPER
	MOVQ R13, ret+128(FP)
	RET

emit:
	MOVQ         rows+112(FP), R9
	MOVQ         scores+120(FP), R10
	VEXTRACTF128 $1, Y6, X7
	MOVL         R12, (R9)(R13*4)
	VMOVSD       X6, (R10)(R13*8)
	MOVQ         AX, CX
	ANDQ         $1, CX
	ADDQ         CX, R13
	LEAQ         1(R12), R11
	MOVL         R11, (R9)(R13*4)
	VMOVHPD      X6, (R10)(R13*8)
	MOVQ         AX, CX
	SHRQ         $1, CX
	ANDQ         $1, CX
	ADDQ         CX, R13
	LEAQ         2(R12), R11
	MOVL         R11, (R9)(R13*4)
	VMOVSD       X7, (R10)(R13*8)
	MOVQ         AX, CX
	SHRQ         $2, CX
	ANDQ         $1, CX
	ADDQ         CX, R13
	LEAQ         3(R12), R11
	MOVL         R11, (R9)(R13*4)
	VMOVHPD      X7, (R10)(R13*8)
	SHRQ         $3, AX
	ADDQ         AX, R13
	JMP          next
