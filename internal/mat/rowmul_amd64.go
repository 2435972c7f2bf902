package mat

// rowMulAVX2 is the assembly body of the row primitive over `blocks`
// whole 32-column blocks: for each block, 8 YMM accumulators start at
// zero and take VBROADCASTSD a[k] · B[k, block] for k = 0..kk−1 as one
// VMULPD then one VADDPD — no FMA, so every lane rounds exactly as the
// Go body does. stride is B's row length in elements; kk must be ≥ 1.
//
//go:noescape
func rowMulAVX2(dst, a, b *float64, kk, blocks, stride int)

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
