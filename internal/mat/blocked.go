package mat

import "priste/internal/par"

// Blocked dense multiplication.
//
// The quantifier no longer calls this kernel (its products run through
// the row primitive, see rowmul.go); it stays because the benchmark
// harness's mat.mul_ms still times it. The naive i-k-j loop in MulInto
// streams a store per output element per k step; the kernel here
// instead computes each output element as a dot product against a
// precomputed transpose of the right operand, holding a 4×2 block of
// accumulators in registers — 8 independent multiply-add chains, one
// store per output element.
//
// Bit-identity with the naive kernel: every accumulator sums its k terms
// in ascending order — exactly the order MulInto adds them — so each
// output element is produced by the identical sequence of floating-point
// operations. (MulInto skips a[i][k] == 0 terms; on the engine's
// non-negative data those terms contribute an exact +0, which leaves the
// running sum unchanged, so the skip is immaterial — the same argument
// that makes the CSR kernels bit-identical, see CSR.) The k chain is
// never split or reassociated, which is also why the micro-kernel does
// not use fused multiply-add: fusing would change the rounding of every
// partial sum.

// MulABtInto computes dst = a·btᵀ, i.e. dst[i][j] = Σ_k a[i][k]·bt[j][k]
// — the blocked form of MulInto(dst, a, b) for callers holding bᵀ. dst
// must not alias a or bt and must have shape a.Rows × bt.Rows. Row tiles
// are split across the shared pool above the same work cutoff as
// MulInto, with fixed tile boundaries and each output row produced by
// exactly one goroutine, so the result is bit-deterministic at any
// parallelism.
func MulABtInto(dst, a, bt *Matrix) {
	if a.Cols != bt.Cols {
		panic("mat: MulABt inner dims mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != bt.Rows {
		panic("mat: MulABt dst shape mismatch")
	}
	if sameBacking(dst.Data, a.Data) || sameBacking(dst.Data, bt.Data) {
		panic("mat: MulABtInto dst aliases an operand")
	}
	if !par.Default().Parallel(a.Rows, int64(a.Rows)*int64(a.Cols)*int64(bt.Rows), parallelFlops) {
		mulABtRows(dst, a, bt, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulABtRows(dst, a, bt, lo, hi) })
}

// mulABtRows computes rows [lo,hi) of dst = a·btᵀ with a 4-row × 2-column
// register-blocked micro-kernel.
func mulABtRows(dst, a, bt *Matrix, lo, hi int) {
	kk := a.Cols
	n := bt.Rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a.Data[(i+0)*kk : (i+0)*kk+kk]
		a1 := a.Data[(i+1)*kk : (i+1)*kk+kk]
		a2 := a.Data[(i+2)*kk : (i+2)*kk+kk]
		a3 := a.Data[(i+3)*kk : (i+3)*kk+kk]
		d0 := dst.Data[(i+0)*n : (i+0)*n+n]
		d1 := dst.Data[(i+1)*n : (i+1)*n+n]
		d2 := dst.Data[(i+2)*n : (i+2)*n+n]
		d3 := dst.Data[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := bt.Data[(j+0)*kk : (j+0)*kk+kk]
			b1 := bt.Data[(j+1)*kk : (j+1)*kk+kk]
			var c00, c01, c10, c11, c20, c21, c30, c31 float64
			for k, bv0 := range b0 {
				bv1 := b1[k]
				av := a0[k]
				c00 += float64(av * bv0)
				c01 += float64(av * bv1)
				av = a1[k]
				c10 += float64(av * bv0)
				c11 += float64(av * bv1)
				av = a2[k]
				c20 += float64(av * bv0)
				c21 += float64(av * bv1)
				av = a3[k]
				c30 += float64(av * bv0)
				c31 += float64(av * bv1)
			}
			d0[j], d0[j+1] = c00, c01
			d1[j], d1[j+1] = c10, c11
			d2[j], d2[j+1] = c20, c21
			d3[j], d3[j+1] = c30, c31
		}
		for ; j < n; j++ {
			b0 := bt.Data[j*kk : j*kk+kk]
			var c0, c1, c2, c3 float64
			for k, bv := range b0 {
				c0 += float64(a0[k] * bv)
				c1 += float64(a1[k] * bv)
				c2 += float64(a2[k] * bv)
				c3 += float64(a3[k] * bv)
			}
			d0[j], d1[j], d2[j], d3[j] = c0, c1, c2, c3
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*kk : i*kk+kk]
		drow := dst.Data[i*n : i*n+n]
		for j := 0; j < n; j++ {
			b0 := bt.Data[j*kk : j*kk+kk]
			var c float64
			for k, bv := range b0 {
				c += float64(arow[k] * bv)
			}
			drow[j] = c
		}
	}
}
