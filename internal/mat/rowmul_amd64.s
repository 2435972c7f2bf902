#include "textflag.h"

// The AVX2 body of the row primitive, in a 1-row and a 2-row form over
// every column of dst: blocks of 8 YMM accumulators (32 columns of one
// row, or 16 columns of each of two rows), then 4-column groups (1
// accumulator a row), then the last n mod 4 columns through a VMASKMOVPD
// load and store that touch no element past the row's end. Every
// accumulator starts at zero and takes its k terms in ascending order,
// one VMULPD then one VADDPD per term (no FMA), so each lane is the same
// accumulation chain as the scalar Go body. kk ≥ 1 and n ≥ 1.

// tailmask: four all-ones quadwords then four zero ones. The 32 bytes at
// offset 8·(4−r) select the first r lanes.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func rowMulAVX2(dst, a, b *float64, kk, n, stride int)
//
// dst[0:n] = Σ_{k<kk} a[k] · b[k*stride : k*stride+n]
TEXT ·rowMulAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ kk+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ stride+40(FP), R9
	SHLQ $3, R9        // row stride in bytes

	MOVQ R8, R13
	SHRQ $5, R13       // 32-column blocks: 8 accumulators for one row
	JZ   half1

block1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R10     // &a[k]
	MOVQ   DX, R11     // &b[k*stride + column]
	MOVQ   CX, R12     // k countdown

term1:
	VBROADCASTSD (R10), Y8
	VMULPD       0(R11), Y8, Y9
	VMULPD       32(R11), Y8, Y10
	VMULPD       64(R11), Y8, Y11
	VMULPD       96(R11), Y8, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R11), Y8, Y9
	VMULPD       160(R11), Y8, Y10
	VMULPD       192(R11), Y8, Y11
	VMULPD       224(R11), Y8, Y12
	VADDPD       Y9, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          term1

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	DECQ    R13
	JNZ     block1

half1:
	TESTQ $16, R8      // one 16-column block left?
	JZ    quads1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

halfterm1:
	VBROADCASTSD (R10), Y8
	VMULPD       0(R11), Y8, Y9
	VMULPD       32(R11), Y8, Y10
	VMULPD       64(R11), Y8, Y11
	VMULPD       96(R11), Y8, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          halfterm1

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX

quads1:
	MOVQ R8, R13
	SHRQ $2, R13
	ANDQ $3, R13       // 4-column groups
	JZ   tail1

quad1:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

quadterm1:
	VBROADCASTSD (R10), Y8
	VMULPD       (R11), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          quadterm1

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    R13
	JNZ     quad1

tail1:
	ANDQ $3, R8        // columns past the last group
	JZ   done1
	LEAQ tailmask<>(SB), R13
	NEGQ R8
	VMOVUPD 32(R13)(R8*8), Y15
	VXORPD  Y0, Y0, Y0
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    CX, R12

tailterm1:
	VBROADCASTSD (R10), Y8
	VMASKMOVPD   (R11), Y15, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          tailterm1

	VMASKMOVPD Y0, Y15, (DI)

done1:
	VZEROUPPER
	RET

// func rowMul2AVX2(dst0, dst1, a0, a1, b *float64, kk, n, stride int)
//
// The two-row register tile: rowMulAVX2 for rows (a0, dst0) and (a1,
// dst1) against the same b, so every load of b feeds two chains.
TEXT ·rowMul2AVX2(SB), NOSPLIT, $0-64
	MOVQ dst0+0(FP), DI
	MOVQ dst1+8(FP), BX
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), AX
	MOVQ b+32(FP), DX
	MOVQ kk+40(FP), CX
	MOVQ n+48(FP), R8
	MOVQ stride+56(FP), R9
	SHLQ $3, R9
	SUBQ SI, AX        // a1[k] sits at (&a0[k])(AX*1)

	MOVQ R8, R13
	SHRQ $4, R13
	JZ   quads2

block2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

term2:
	VBROADCASTSD (R10), Y8
	VBROADCASTSD (R10)(AX*1), Y9
	VMOVUPD      0(R11), Y10
	VMOVUPD      32(R11), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VMULPD       Y11, Y8, Y14
	VMULPD       Y11, Y9, Y15
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y4, Y4
	VADDPD       Y14, Y1, Y1
	VADDPD       Y15, Y5, Y5
	VMOVUPD      64(R11), Y10
	VMOVUPD      96(R11), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VMULPD       Y11, Y8, Y14
	VMULPD       Y11, Y9, Y15
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y6, Y6
	VADDPD       Y14, Y3, Y3
	VADDPD       Y15, Y7, Y7
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          term2

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 0(BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, 64(BX)
	VMOVUPD Y7, 96(BX)
	ADDQ    $128, DI
	ADDQ    $128, BX
	ADDQ    $128, DX
	DECQ    R13
	JNZ     block2

quads2:
	MOVQ R8, R13
	SHRQ $2, R13
	ANDQ $3, R13
	JZ   tail2

quad2:
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

quadterm2:
	VBROADCASTSD (R10), Y8
	VBROADCASTSD (R10)(AX*1), Y9
	VMOVUPD      (R11), Y10
	VMULPD       Y10, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y4, Y4
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          quadterm2

	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (BX)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, DX
	DECQ    R13
	JNZ     quad2

tail2:
	ANDQ $3, R8
	JZ   done2
	LEAQ tailmask<>(SB), R13
	NEGQ R8
	VMOVUPD 32(R13)(R8*8), Y15
	VXORPD  Y0, Y0, Y0
	VXORPD  Y4, Y4, Y4
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    CX, R12

tailterm2:
	VBROADCASTSD (R10), Y8
	VBROADCASTSD (R10)(AX*1), Y9
	VMASKMOVPD   (R11), Y15, Y10
	VMULPD       Y10, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y4, Y4
	ADDQ         $8, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          tailterm2

	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y4, Y15, (BX)

done2:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
