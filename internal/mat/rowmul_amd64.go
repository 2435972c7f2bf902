package mat

// rowMulAVX2 is the assembly body of the row primitive over all n
// columns of dst: YMM accumulators start at zero and take VBROADCASTSD
// a[k] · B[k, cols] for k = 0..kk−1 as one VMULPD then one VADDPD — no
// FMA, so every lane rounds exactly as the Go body does. The last n mod 4
// columns go through a masked load and store. stride is B's row length
// in elements; kk and n must be ≥ 1.
//
//go:noescape
func rowMulAVX2(dst, a, b *float64, kk, n, stride int)

// rowMul2AVX2 is rowMulAVX2 for two rows against the same B — the
// register tile: each load of B feeds both rows' accumulators.
//
//go:noescape
func rowMul2AVX2(dst0, dst1, a0, a1, b *float64, kk, n, stride int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// The assembly body needs AVX2 from the CPU (leaf 7 EBX bit 5, with AVX
// at leaf 1 ECX bit 28) and YMM state saved by the OS (OSXSAVE at leaf 1
// ECX bit 27, then XCR0 bits 1 and 2).
func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	rowMulAsm = ebx7&(1<<5) != 0
}
