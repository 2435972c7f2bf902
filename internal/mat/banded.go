package mat

import "priste/internal/par"

// Banded multiplication.
//
// Under a grid ordering the mobility kernels are spatially local, so a
// transition matrix M has bandwidth bw ≪ m (all nonzeros within |i−j| ≤
// bw), and the Theorem IV.1 forward operators — products of masked
// copies of M — stay banded for short horizons: each committed step
// widens the operator band by M's band. The kernels here restrict both
// the k loop (to the left operand's band) and the j loop (to the right
// operand's band), turning an O(m³) product into O(m·(2p+1)·(2bw+1)).
//
// Bit-identity with the naive kernel: the loop order is the same i-k-j
// scatter as MulInto with the k chain ascending, and every skipped term
// has a zero factor — either a[i][k] outside a's band (the same skip
// MulInto performs) or b[k][j] outside b's band, which contributes an
// exact +0 on the engine's non-negative data. The band arguments are a
// caller contract: entries outside the declared bands must be exactly
// zero, or the result diverges from the dense product.

// Bandwidth returns the bandwidth of a: the largest |i−j| over nonzero
// entries (0 for a diagonal or zero matrix). For a non-square matrix the
// same |i−j| measure applies.
func Bandwidth(a *Matrix) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		// Only columns outside [i−bw, i+bw] can grow the band; scan
		// outward-first so dense rows terminate in O(1) amortised.
		for j := 0; j < i-bw; j++ {
			if row[j] != 0 {
				bw = i - j
				break
			}
		}
		for j := a.Cols - 1; j > i+bw; j-- {
			if row[j] != 0 {
				bw = j - i
				break
			}
		}
	}
	return bw
}

// MulBandInto computes dst = a·b where a has bandwidth aBand and b has
// bandwidth bBand (entries outside those bands must be exactly zero).
// dst must not alias an operand; it is fully zeroed first, so entries
// outside the product band come out as exact zeros — the same bits the
// dense kernels produce for them. Band strips (row tiles) split across
// the shared pool above the work cutoff; each dst row has a single
// writer, so the result is bit-deterministic at any parallelism.
func MulBandInto(dst, a, b *Matrix, aBand, bBand int) {
	if a.Cols != b.Rows {
		panic("mat: MulBand inner dims mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulBand dst shape mismatch")
	}
	if sameBacking(dst.Data, a.Data) || sameBacking(dst.Data, b.Data) {
		panic("mat: MulBandInto dst aliases an operand")
	}
	dst.Zero()
	flops := int64(a.Rows) * int64(2*aBand+1) * int64(2*bBand+1)
	if !par.Default().Parallel(a.Rows, flops, parallelFlops) {
		mulBandRows(dst, a, b, aBand, bBand, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulBandRows(dst, a, b, aBand, bBand, lo, hi) })
}

func mulBandRows(dst, a, b *Matrix, aBand, bBand, lo, hi int) {
	kk := a.Cols
	n := b.Cols
	for i := lo; i < hi; i++ {
		drow, arow := dst.Row(i), a.Row(i)
		k0, k1 := max(i-aBand, 0), min(i+aBand, kk-1)
		if bBand == 0 {
			// A diagonal b is a column scaling: each dst[i][k] is the
			// one-term chain 0 + a[i][k]·b[k][k], and 0 + x = x on the
			// engine's non-negative data.
			for k := k0; k <= min(k1, n-1); k++ {
				drow[k] = float64(arow[k] * b.Data[k*n+k])
			}
			continue
		}
		rowMulBand(drow, arow, k0, k1, b, bBand)
	}
}

// rowMulBand accumulates Σ_{k=k0..k1} arow[k]·b[k, k−bBand..k+bBand]
// into drow, k ascending, skipping zero arow[k] — the banded form of the
// row primitive (the column window moves with k, so it stays a Go loop).
func rowMulBand(drow, arow []float64, k0, k1 int, b *Matrix, bBand int) {
	n := b.Cols
	for k := k0; k <= k1; k++ {
		aik := arow[k]
		if aik == 0 {
			continue
		}
		j0, j1 := max(k-bBand, 0), min(k+bBand, n-1)
		brow := b.Data[k*n+j0 : k*n+j1+1]
		dseg := drow[j0 : j1+1]
		for jj, bv := range brow {
			dseg[jj] += float64(aik * bv)
		}
	}
}
