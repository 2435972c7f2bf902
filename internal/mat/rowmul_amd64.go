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

// screenEdgesAVX2 is the assembly body of ScreenEdges over all n pairs,
// four to a YMM register, the last n mod 4 through a masked load: it
// returns the first k whose pair passes, or n when none does. n must be
// ≥ 1.
//
//go:noescape
func screenEdgesAVX2(ai, wi, qi float64, a, w, q *float64, n int) int

// maskRowAVX2 is the assembly body of MaskRow over the first n entries,
// four a step, with the masks' complements nft = 1−ft and ntt = 1−tt
// passed in; the maxima are taken lane by lane with VMAXPD, which keeps
// the old maximum against a NaN, then across the four lanes. n must be
// a positive multiple of 4.
//
//go:noescape
func maskRowAVX2(f, t, x, y *float64, n int, nft, ntt, ft, tt, e float64) (fMax, tMax float64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// The assembly bodies need AVX2 from the CPU (leaf 7 EBX bit 5, with AVX
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
	useAVX2 = ebx7&(1<<5) != 0
}
