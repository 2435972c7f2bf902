#include "textflag.h"

// func rowMulAVX2(dst, a, b *float64, kk, blocks, stride int)
//
// For each of `blocks` 32-column blocks:
//   dst[0:32] = Σ_{k<kk} a[k] · b[k*stride : k*stride+32]
// k ascending, one VMULPD then one VADDPD per term per lane (no FMA), so
// each lane is the same accumulation chain as the scalar Go body.
TEXT ·rowMulAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ kk+24(FP), CX
	MOVQ blocks+32(FP), R8
	MOVQ stride+40(FP), R9
	SHLQ $3, R9 // row stride in bytes

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R10 // &a[k]
	MOVQ   DX, R11 // &b[k*stride + block*32]
	MOVQ   CX, R12 // k countdown

term:
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
	JNZ          term

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
	DECQ    R8
	JNZ     block

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
