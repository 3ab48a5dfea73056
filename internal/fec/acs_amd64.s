#include "textflag.h"

// The AVX2 add-compare-select kernel. All 64 int32 path metrics stay in
// eight ymm registers for the whole run of steps: logical vector k holds
// states 8k..8k+7. One step is four groups of eight butterflies; group g
// reads vectors 2g and 2g+1 (states 16g..16g+15), splits them into the
// even and odd predecessors E and O of states 8g..8g+7, and writes those
// states (vector g) over its first input and states 32+8g.. (vector 4+g)
// over its second:
//
//	b  = sign(sp_g)·p + sign(sq_g)·q        (VPSIGND, the acsSigns table)
//	lo = a−c < 0 ? c : a,   a = E+b, c = O−b
//	hi = d−e < 0 ? e : d,   d = E−b, e = O+b
//
// The select is VBLENDVPS on the sign of the wrapped int32 difference,
// which is exact while the true difference is below 2^31; a signed max
// would not be once the metrics wrap. VMOVMSKPS of the same differences
// gives the eight survivor bits of each output vector, stored as one byte
// of the step's survivor word.
//
// Writing the outputs over the inputs moves logical vector k to the
// register that held vector rotl3(k) before the step, a permutation of
// order three, so the loop runs three steps per iteration with the
// register names rotated and the 0–2 remaining steps end in a store that
// undoes the rotation.
//
// Registers: DI metrics, SI (p, q) pairs, BX survivor words, CX steps
// left, R8 acsSigns, AX a survivor byte; Y0–Y7 the metrics, Y8 E, Y9 O, Y10 b, Y11–Y13 candidates and differences, Y14 and
// Y15 the broadcast p and q.

// GROUP runs the eight butterflies of one group: va and vb hold its input
// vectors and receive its low and high output vectors; sp and sq are the
// group's offsets into acsSigns and slo and shi the offsets of its low and
// high survivor bytes (states 8g.. and 32+8g..) in the survivor word.
#define GROUP(va, vb, sp, sq, slo, shi) \
	VSHUFPS   $0x88, vb, va, Y8; \
	VSHUFPS   $0xDD, vb, va, Y9; \
	VPERMQ    $0xD8, Y8, Y8; \
	VPERMQ    $0xD8, Y9, Y9; \
	VPSIGND   sp(R8), Y14, Y10; \
	VPSIGND   sq(R8), Y15, Y11; \
	VPADDD    Y11, Y10, Y10; \
	VPADDD    Y10, Y8, Y11; \
	VPSUBD    Y10, Y9, Y12; \
	VPSUBD    Y12, Y11, Y13; \
	VBLENDVPS Y13, Y12, Y11, va; \
	VMOVMSKPS Y13, AX; \
	MOVB      AX, slo(BX); \
	VPSUBD    Y10, Y8, Y11; \
	VPADDD    Y10, Y9, Y12; \
	VPSUBD    Y12, Y11, Y13; \
	VBLENDVPS Y13, Y12, Y11, vb; \
	VMOVMSKPS Y13, AX; \
	MOVB      AX, shi(BX)

// STEP runs one trellis step with logical vectors 0..7 in r0..r7.
#define STEP(r0, r1, r2, r3, r4, r5, r6, r7) \
	VPBROADCASTD 0(SI), Y14; \
	VPBROADCASTD 4(SI), Y15; \
	GROUP(r0, r1, 0, 32, 0, 4); \
	GROUP(r2, r3, 64, 96, 1, 5); \
	GROUP(r4, r5, 128, 160, 2, 6); \
	GROUP(r6, r7, 192, 224, 3, 7); \
	ADDQ         $8, SI; \
	ADDQ         $8, BX

// STORE writes logical vectors 0..7, held in r0..r7, back to the metrics.
#define STORE(r0, r1, r2, r3, r4, r5, r6, r7) \
	VMOVDQU r0, 0(DI); \
	VMOVDQU r1, 32(DI); \
	VMOVDQU r2, 64(DI); \
	VMOVDQU r3, 96(DI); \
	VMOVDQU r4, 128(DI); \
	VMOVDQU r5, 160(DI); \
	VMOVDQU r6, 192(DI); \
	VMOVDQU r7, 224(DI)

// func acsAVX2(m *[numStates]int32, pq [][2]int32, surv []uint64)
TEXT ·acsAVX2(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), DI
	MOVQ pq_base+8(FP), SI
	MOVQ surv_base+32(FP), BX
	MOVQ surv_len+40(FP), CX
	LEAQ ·acsSigns(SB), R8
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7

loop:
	CMPQ CX, $3
	JLT  rest
	STEP(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	STEP(Y0, Y2, Y4, Y6, Y1, Y3, Y5, Y7)
	STEP(Y0, Y4, Y1, Y5, Y2, Y6, Y3, Y7)
	SUBQ $3, CX
	JMP  loop

rest:
	CMPQ CX, $0
	JEQ  store0
	STEP(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	CMPQ CX, $1
	JEQ  store1
	STEP(Y0, Y2, Y4, Y6, Y1, Y3, Y5, Y7)
	STORE(Y0, Y4, Y1, Y5, Y2, Y6, Y3, Y7)
	VZEROUPPER
	RET

store1:
	STORE(Y0, Y2, Y4, Y6, Y1, Y3, Y5, Y7)
	VZEROUPPER
	RET

store0:
	STORE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
