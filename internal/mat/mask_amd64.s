#include "textflag.h"

// The AVX2 body of the mask epilogue: four entries a step,
//
//	f = (x·(1−ft) + y·(1−tt))·e,  t = (x·ft + y·tt)·e,
//
// each a VMULPD per product, a VADDPD, then a VMULPD by e — the Go
// body's rounded operations in its order, no FMA. The running maxima
// take |f| and |t| by VANDPD with the sign cleared, then VMAXPD with the
// old maximum as the second (Intel) source: VMAXPD returns that operand
// when the first is a NaN, so a NaN lane keeps the old maximum exactly as
// the Go body's `if v > max` does. The four lanes' maxima, all ≥ 0 and
// never NaN, are then folded into one in any order.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func maskRowAVX2(f, t, x, y *float64, n int, nft, ntt, ft, tt, e float64) (fMax, tMax float64)
TEXT ·maskRowAVX2(SB), NOSPLIT, $0-96
	MOVQ         f+0(FP), DI
	MOVQ         t+8(FP), BX
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSD nft+40(FP), Y8
	VBROADCASTSD ntt+48(FP), Y9
	VBROADCASTSD ft+56(FP), Y10
	VBROADCASTSD tt+64(FP), Y11
	VBROADCASTSD e+72(FP), Y12
	VBROADCASTSD absmask<>(SB), Y13
	VXORPD       Y14, Y14, Y14      // max |f| per lane
	VXORPD       Y15, Y15, Y15      // max |t| per lane
	XORQ         AX, AX

quad:
	VMOVUPD (SI)(AX*8), Y0          // x
	VMOVUPD (DX)(AX*8), Y1          // y
	VMULPD  Y8, Y0, Y2              // x·(1−ft)
	VMULPD  Y9, Y1, Y3              // y·(1−tt)
	VADDPD  Y3, Y2, Y2
	VMULPD  Y12, Y2, Y2             // f
	VMULPD  Y10, Y0, Y4             // x·ft
	VMULPD  Y11, Y1, Y5             // y·tt
	VADDPD  Y5, Y4, Y4
	VMULPD  Y12, Y4, Y4             // t
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y4, (BX)(AX*8)
	VANDPD  Y13, Y2, Y2
	VANDPD  Y13, Y4, Y4
	VMAXPD  Y14, Y2, Y14            // |f| > max ? |f| : max
	VMAXPD  Y15, Y4, Y15
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     quad

	VEXTRACTF128 $1, Y14, X0
	VMAXPD       X0, X14, X14
	VPERMILPD    $1, X14, X0
	VMAXSD       X0, X14, X14
	VMOVSD       X14, fMax+80(FP)
	VEXTRACTF128 $1, Y15, X1
	VMAXPD       X1, X15, X15
	VPERMILPD    $1, X15, X1
	VMAXSD       X1, X15, X15
	VMOVSD       X15, tMax+88(FP)
	VZEROUPPER
	RET
