package mat

import "priste/internal/par"

// The row primitive.
//
// Every dense product the quantifier performs is a row vector times a
// row-major matrix, dst[0:n] = Σₖ a[k]·B[k, 0:n]: a check is one such
// row (uᵀ·Op), a commit is m of them (the rows of Mᵀ·Op). The primitive
// has two bodies — rowMulGo below and, on amd64 with AVX2, the assembly
// in rowmul_amd64.s — chosen once at init from what the CPU reports.
//
// Bit-identity with MulInto, Matrix.VecMulInto, MulBandInto and the CSR
// kernels: every dst[j] is one accumulation chain that starts at zero
// and takes its k terms in ascending order, one multiply then one add
// per term (never fused). The other kernels differ only in skipping
// terms with a zero factor, which on the engine's non-negative data
// contribute an exact +0.

// rowMulAsm reports whether rowMul runs full 32-column blocks through
// the assembly body; set once by the amd64 init, false elsewhere.
var rowMulAsm bool

// RowKernel names the active body of the row primitive: "avx2" or
// "portable".
func RowKernel() string {
	if rowMulAsm {
		return "avx2"
	}
	return "portable"
}

// rowBlock is the column width of one assembly block: 8 YMM accumulators
// of 4 float64 each.
const rowBlock = 32

// rowMul stores Σₖ a[k]·b[k·stride + j] into dst[j] for every j. The
// assembly body takes whole 32-column blocks; the remainder columns run
// through the Go body.
func rowMul(dst, a, b []float64, stride int) {
	done := 0
	if rowMulAsm && len(dst) >= rowBlock && len(a) > 0 {
		blocks := len(dst) / rowBlock
		rowMulAVX2(&dst[0], &a[0], &b[0], len(a), blocks, stride)
		done = blocks * rowBlock
	}
	if done < len(dst) {
		rowMulGo(dst[done:], a, b[done:], stride)
	}
}

// rowMulGo is the portable body: k unrolled ×4 along the one chain, so
// dst is loaded and stored once per four terms.
func rowMulGo(dst, a, b []float64, stride int) {
	n := len(dst)
	for j := range dst {
		dst[j] = 0
	}
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		b0 := b[k*stride:][:n]
		b1 := b[(k+1)*stride:][:n]
		b2 := b[(k+2)*stride:][:n]
		b3 := b[(k+3)*stride:][:n]
		for j, s := range dst {
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			dst[j] = s
		}
	}
	for ; k < len(a); k++ {
		ak := a[k]
		for j, v := range b[k*stride:][:n] {
			dst[j] += ak * v
		}
	}
}

// RowMulInto stores xᵀ·b into dst and returns dst — Matrix.VecMulInto's
// result, bit for bit — for b with bandwidth band (entries outside
// |i−j| ≤ band must be exactly zero; any band ≥ b.Rows−1 declares
// nothing). A band that skips columns runs band-limited, row k touching
// only columns [k−band, k+band] — the skipped terms are exact zeros;
// otherwise the product is the row primitive. dst must not alias x.
func RowMulInto(dst, x Vector, b *Matrix, band int) Vector {
	if len(x) != b.Rows || len(dst) != b.Cols {
		panic("mat: RowMul shape mismatch")
	}
	if 2*band+1 >= b.Rows {
		rowMul(dst, x, b.Data, b.Cols)
		return dst
	}
	for j := range dst {
		dst[j] = 0
	}
	rowMulBand(dst, x, 0, b.Rows-1, b, band)
	return dst
}

// MulRowsInto computes dst = a·b one row primitive per output row. dst
// must not alias an operand. Rows split across the shared pool above
// the same cutoff and at the same boundaries as MulInto, one writer per
// row, so the result is bit-deterministic at any parallelism.
func MulRowsInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic("mat: MulRows inner dims mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulRows dst shape mismatch")
	}
	if sameBacking(dst.Data, a.Data) || sameBacking(dst.Data, b.Data) {
		panic("mat: MulRowsInto dst aliases an operand")
	}
	if !par.Default().Parallel(a.Rows, int64(a.Rows)*int64(a.Cols)*int64(b.Cols), parallelFlops) {
		mulRowsRange(dst, a, b, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulRowsRange(dst, a, b, lo, hi) })
}

func mulRowsRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		rowMul(dst.Data[i*b.Cols:(i+1)*b.Cols], a.Data[i*a.Cols:(i+1)*a.Cols], b.Data, b.Cols)
	}
}
