package mat

// The edge screen.
//
// The release check's QP (package qp) maximises (π·a)(π·w) + q·π over
// the simplex by looking at every edge eᵢ–eⱼ, and an edge needs work
// only when its one-variable quadratic peaks strictly inside it:
//
//	A = Δa·Δw < 0  and  0 < B < −2·A,  B = (aᵢ·Δw + wᵢ·Δa) + Δq,
//
// with Δa = aⱼ−aᵢ, Δw = wⱼ−wᵢ, Δq = qⱼ−qᵢ. Almost every edge fails, so
// the scan spends its time proving that. ScreenEdges does the proving
// for one row i against the tail j > i. It has two bodies, chosen by the
// row primitive's CPU switch: screenEdgesGo below and, on amd64 with
// AVX2, the assembly in edges_amd64.s, which tests four pairs to a
// register. Both round every operation as the scan's own test does (one
// subtraction per Δ, products rounded before they are added, no fused
// multiply-add, the same three ordered comparisons), so they skip
// exactly the pairs that test rejects, NaN included.

// ScreenEdges returns the first k at which the edge from (ai, wi, qi)
// to (a[k], w[k], q[k]) peaks strictly inside, or len(a) when none
// does. w and q must be at least as long as a.
func ScreenEdges(ai, wi, qi float64, a, w, q []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	if useAVX2 {
		_, _ = w[n-1], q[n-1]
		return screenEdgesAVX2(ai, wi, qi, &a[0], &w[0], &q[0], n)
	}
	return screenEdgesGo(ai, wi, qi, a, w, q)
}

// screenEdgesGo is the portable body of ScreenEdges.
func screenEdgesGo(ai, wi, qi float64, a, w, q []float64) int {
	w, q = w[:len(a)], q[:len(a)]
	for k, ak := range a {
		da, dw := ak-ai, w[k]-wi
		qa := da * dw
		qb := float64(ai*dw) + float64(wi*da) + (q[k] - qi)
		if qa < 0 && qb > 0 && qb < -2*qa {
			return k
		}
	}
	return len(a)
}
