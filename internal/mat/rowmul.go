package mat

import "priste/internal/par"

// The row primitive.
//
// Every dense product the quantifier performs is a row vector times a
// row-major matrix, dst[0:n] = Σₖ a[k]·B[k, 0:n]: a check is one such
// row (uᵀ·Op), a commit is m of them (the rows of Mᵀ·Op), or two
// passes of them when M is a Kronecker product (KronMulInto). The primitive
// has two bodies — rowMulGo below and, on amd64 with AVX2, the assembly
// in rowmul_amd64.s — chosen once at init from what the CPU reports. The
// assembly covers every column and comes in a 1-row and a 2-row form;
// the 2-row register tile serves rows that share B (the rows of a
// commit, a check's rows against the same operator). The same switch
// picks the bodies of the package's two other AVX2 kernels, the O(m²)
// loops beside the products: the release check's edge screen
// (ScreenEdges, edges.go) and the commit's mask epilogue (MaskRow,
// mask.go). Each keeps its Go loop as the portable body.
//
// Bit-identity with MulInto, Matrix.VecMulInto and the CSR kernels:
// every dst[j] is one accumulation chain that starts at zero and takes
// its k terms in ascending order, one multiply then one add per term
// (never fused — the Go loops round each product with an explicit
// float64 conversion, which forbids the fusion arm64 would otherwise
// apply). The other kernels differ only in skipping terms with a zero
// factor, which on the engine's non-negative data contribute an exact
// +0.

// useAVX2 reports whether the row primitive, the edge screen
// (ScreenEdges) and the mask epilogue (MaskRow) run their assembly
// bodies; set once by the amd64 init, false elsewhere.
var useAVX2 bool

// RowKernel names the active body set of the row primitive, the edge
// screen and the mask epilogue: "avx2" or "portable".
func RowKernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// rowMul stores Σₖ a[k]·b[k·stride + j] into dst[j] for every j.
func rowMul(dst, a, b []float64, stride int) {
	switch {
	case len(dst) == 0:
	case len(a) == 0:
		clear(dst)
	case useAVX2:
		_ = b[(len(a)-1)*stride+len(dst)-1]
		rowMulAVX2(&dst[0], &a[0], &b[0], len(a), len(dst), stride)
	default:
		rowMulGo(dst, a, b, stride)
	}
}

// rowMul2 is rowMul for two rows against the same b: dst0 from a0 and
// dst1 from a1, which have the lengths of dst0 and a0.
func rowMul2(dst0, dst1, a0, a1, b []float64, stride int) {
	if !useAVX2 || len(dst0) == 0 || len(a0) == 0 {
		rowMul(dst0, a0, b, stride)
		rowMul(dst1, a1, b, stride)
		return
	}
	_ = dst1[len(dst0)-1]
	_ = a1[len(a0)-1]
	_ = b[(len(a0)-1)*stride+len(dst0)-1]
	rowMul2AVX2(&dst0[0], &dst1[0], &a0[0], &a1[0], &b[0], len(a0), len(dst0), stride)
}

// rowMulGo is the portable body: k unrolled ×4 along the one chain, so
// dst is loaded and stored once per four terms.
func rowMulGo(dst, a, b []float64, stride int) {
	n := len(dst)
	clear(dst)
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		b0 := b[k*stride:][:n]
		b1 := b[(k+1)*stride:][:n]
		b2 := b[(k+2)*stride:][:n]
		b3 := b[(k+3)*stride:][:n]
		for j, s := range dst {
			s += float64(a0 * b0[j])
			s += float64(a1 * b1[j])
			s += float64(a2 * b2[j])
			s += float64(a3 * b3[j])
			dst[j] = s
		}
	}
	for ; k < len(a); k++ {
		ak := a[k]
		for j, v := range b[k*stride:][:n] {
			dst[j] += float64(ak * v)
		}
	}
}

// RowMulInto stores xᵀ·b into dst and returns dst — Matrix.VecMulInto's
// result, bit for bit — for b with bandwidth band (entries outside
// |i−j| ≤ band must be exactly zero; any band ≥ b.Rows−1 declares
// nothing). A band that skips columns runs band-limited, row k touching
// only columns [k−band, k+band], k ascending and zero x[k] skipped — the
// skipped terms are exact zeros on the engine's non-negative data, and
// the column window moves with k, so it stays a Go loop; otherwise the
// product is the row primitive. dst must not alias x.
func RowMulInto(dst, x Vector, b *Matrix, band int) Vector {
	if len(x) != b.Rows || len(dst) != b.Cols {
		panic("mat: RowMul shape mismatch")
	}
	if 2*band+1 >= b.Rows {
		rowMul(dst, x, b.Data, b.Cols)
		return dst
	}
	clear(dst)
	n := b.Cols
	for k, xk := range x {
		if xk == 0 {
			continue
		}
		j0, j1 := max(k-band, 0), min(k+band, n-1)
		dseg := dst[j0 : j1+1]
		for j, bv := range b.Data[k*n+j0 : k*n+j1+1] {
			dseg[j] += float64(xk * bv)
		}
	}
	return dst
}

// RowMul2Into stores x0ᵀ·b into dst0 and x1ᵀ·b into dst1, each bit for
// bit RowMulInto's result: full-band the two rows share the register
// tile, so every load of b feeds both; band-limited each runs alone.
// Neither dst may alias an x.
func RowMul2Into(dst0, dst1, x0, x1 Vector, b *Matrix, band int) {
	if len(x0) != b.Rows || len(x1) != b.Rows || len(dst0) != b.Cols || len(dst1) != b.Cols {
		panic("mat: RowMul2 shape mismatch")
	}
	if 2*band+1 >= b.Rows {
		rowMul2(dst0, dst1, x0, x1, b.Data, b.Cols)
		return
	}
	RowMulInto(dst0, x0, b, band)
	RowMulInto(dst1, x1, b, band)
}

// MulRowsInto computes dst = a·b one row primitive per output row, rows
// taken in pairs through the register tile. dst must not alias an
// operand. Rows split across the shared pool above the same cutoff and
// at the same boundaries as MulInto, one writer per row, so the result
// is bit-deterministic at any parallelism.
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

// mulRowsRange computes rows [lo,hi) of dst = a·b, two at a time; an
// odd last row takes the 1-row form.
func mulRowsRange(dst, a, b *Matrix, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		rowMul2(dst.Row(i), dst.Row(i+1), a.Row(i), a.Row(i+1), b.Data, b.Cols)
	}
	if i < hi {
		rowMul(dst.Row(i), a.Row(i), b.Data, b.Cols)
	}
}

// KronMulInto stores (a ⊗ b)·op into dst as two passes of the row
// primitive, with tmp holding the intermediate. a is h×h, b is w×w, and
// op, dst and tmp are (h·w)×n; row y·w+x of the result is
//
//	Σ_{y'} a[y][y'] · (Σ_{x'} b[x][x'] · op[y'·w+x', :]).
//
// Pass 1 stores the inner sums in tmp, one block of w rows at a time:
// block y' of tmp is b times block y' of op. Pass 2 reads tmp and dst
// as h rows of w·n and stores a times tmp. That is n·h·w·(h+w)
// multiply-adds, against (h·w)²·n for the assembled Kronecker product.
// Each entry is a different chain from the assembled product's, so the
// two agree to rounding, not bit for bit. Both passes are serial and
// allocate nothing. dst, tmp and op must be three distinct matrices.
func KronMulInto(dst, tmp, a, b, op *Matrix) {
	h, w, n := a.Rows, b.Rows, op.Cols
	if a.Cols != h || b.Cols != w || op.Rows != h*w {
		panic("mat: KronMul operand shapes mismatch")
	}
	if dst.Rows != op.Rows || dst.Cols != n || tmp.Rows != op.Rows || tmp.Cols != n {
		panic("mat: KronMul dst or tmp shape mismatch")
	}
	if sameBacking(dst.Data, tmp.Data) || sameBacking(dst.Data, op.Data) || sameBacking(tmp.Data, op.Data) {
		panic("mat: KronMulInto dst, tmp and op must not share storage")
	}
	blk := w * n
	for y := 0; y < h; y++ {
		out := Matrix{Rows: w, Cols: n, Data: tmp.Data[y*blk:][:blk]}
		in := Matrix{Rows: w, Cols: n, Data: op.Data[y*blk:][:blk]}
		mulRowsRange(&out, b, &in, 0, w)
	}
	out := Matrix{Rows: h, Cols: blk, Data: dst.Data}
	in := Matrix{Rows: h, Cols: blk, Data: tmp.Data}
	mulRowsRange(&out, a, &in, 0, h)
}
