#include "textflag.h"

// The AVX2 body of the edge screen, four pairs a lane group: two groups a
// step while eight pairs remain, then one group, then the last n mod 4
// pairs through a VMASKMOVPD load that touches no element past the end.
// Each lane is the scan's own test in the same rounded operations — Δa,
// Δw, Δq by one VSUBPD each, A = Δa·Δw, B = (aᵢ·Δw + wᵢ·Δa) + Δq by
// VMULPD and VADDPD in that order (no FMA), −2·A by one VMULPD — and the
// three ordered, quiet comparisons A < 0, B > 0, B < −2·A, which are false
// on a NaN as Go's are. VMOVMSKPD gathers the lanes where all three hold;
// the first such lane ends the screen.

// lanes: four all-ones quadwords then four zero ones. The 32 bytes at
// offset 8·(4−r) select the first r lanes.
DATA lanes<>+0(SB)/8, $-1
DATA lanes<>+8(SB)/8, $-1
DATA lanes<>+16(SB)/8, $-1
DATA lanes<>+24(SB)/8, $-1
DATA lanes<>+32(SB)/8, $0
DATA lanes<>+40(SB)/8, $0
DATA lanes<>+48(SB)/8, $0
DATA lanes<>+56(SB)/8, $0
GLOBL lanes<>(SB), RODATA|NOPTR, $64

DATA negtwo<>+0(SB)/8, $-2.0
GLOBL negtwo<>(SB), RODATA|NOPTR, $8

// SCREEN takes a group's a, w, q lanes in A, W, Q and leaves all-ones in
// the lanes of A whose pair passes; W, Q and T are clobbered. Y10–Y12
// hold aᵢ, wᵢ, qᵢ, Y13 −2 and Y14 zero, all broadcast. In order: Δa, Δw,
// Δq; T = A = Δa·Δw; A = wᵢ·Δa; W = aᵢ·Δw; W = aᵢ·Δw + wᵢ·Δa; W = B =
// that + Δq; then A < 0, −2·A, B > 0, B < −2·A, and the lanes of all three.
#define SCREEN(A, W, Q, T) \
	VSUBPD Y10, A, A; \
	VSUBPD Y11, W, W; \
	VSUBPD Y12, Q, Q; \
	VMULPD W, A, T; \
	VMULPD A, Y11, A; \
	VMULPD W, Y10, W; \
	VADDPD A, W, W; \
	VADDPD Q, W, W; \
	VCMPPD $0x11, Y14, T, A; \
	VMULPD Y13, T, T; \
	VCMPPD $0x1e, Y14, W, Q; \
	VCMPPD $0x11, T, W, T; \
	VANDPD Q, A, A; \
	VANDPD T, A, A

// func screenEdgesAVX2(ai, wi, qi float64, a, w, q *float64, n int) int
TEXT ·screenEdgesAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD ai+0(FP), Y10
	VBROADCASTSD wi+8(FP), Y11
	VBROADCASTSD qi+16(FP), Y12
	MOVQ         a+24(FP), SI
	MOVQ         w+32(FP), DX
	MOVQ         q+40(FP), R8
	MOVQ         n+48(FP), CX
	VBROADCASTSD negtwo<>(SB), Y13
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX
	MOVQ         CX, R9
	ANDQ         $-8, R9            // pairs in whole groups of eight
	JZ           quad

octet:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (DX)(AX*8), Y1
	VMOVUPD   (R8)(AX*8), Y2
	VMOVUPD   32(SI)(AX*8), Y4
	VMOVUPD   32(DX)(AX*8), Y5
	VMOVUPD   32(R8)(AX*8), Y6
	SCREEN(Y0, Y1, Y2, Y3)
	SCREEN(Y4, Y5, Y6, Y7)
	VMOVMSKPD Y0, BX
	VMOVMSKPD Y4, R10
	SHLL      $4, R10
	ORL       R10, BX
	JNZ       found
	ADDQ      $8, AX
	CMPQ      AX, R9
	JLT       octet

quad:
	TESTQ     $4, CX                // one group of four left?
	JZ        tail
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (DX)(AX*8), Y1
	VMOVUPD   (R8)(AX*8), Y2
	SCREEN(Y0, Y1, Y2, Y3)
	VMOVMSKPD Y0, BX
	TESTL     BX, BX
	JNZ       found
	ADDQ      $4, AX

tail:
	MOVQ       CX, R10
	SUBQ       AX, R10              // pairs past the last group
	JZ         none
	LEAQ       lanes<>(SB), R11
	NEGQ       R10
	VMOVUPD    32(R11)(R10*8), Y15
	VMASKMOVPD (SI)(AX*8), Y15, Y0
	VMASKMOVPD (DX)(AX*8), Y15, Y1
	VMASKMOVPD (R8)(AX*8), Y15, Y2
	SCREEN(Y0, Y1, Y2, Y3)
	VANDPD     Y15, Y0, Y0          // lanes past the end never pass
	VMOVMSKPD  Y0, BX
	TESTL      BX, BX
	JNZ        found

none:
	MOVQ       CX, ret+56(FP)
	VZEROUPPER
	RET

found:
	BSFL       BX, BX               // the first passing lane
	ADDQ       BX, AX
	MOVQ       AX, ret+56(FP)
	VZEROUPPER
	RET
