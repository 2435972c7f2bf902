package mat

import (
	"fmt"

	"priste/internal/par"
)

// CSR is a compressed-sparse-row matrix: each row stores its nonzero
// values with strictly ascending column indices behind a row-pointer
// array. It is the kernel format the PriSTE release loop
// compiles grid transition matrices into — a local mobility model touches
// only a handful of neighbour cells per state, so the Theorem IV.1
// operator updates drop from O(m³)/O(m²) to O(m·nnz)/O(nnz).
//
// Every product below visits the retained entries in exactly the order the
// dense kernels visit them (row-major, ascending column), and the entries
// dropped by compression are exact floating-point zeros whose products
// contribute +0 to every partial sum — so the sparse and dense paths
// produce bit-identical results on non-negative data (probabilities),
// which is what keeps release sequences, history fingerprints and
// restart replay equivalent across the two kernels.
type CSR struct {
	rows, cols int
	rowPtr     []int32 // len rows+1
	colIdx     []int32 // len nnz, ascending within each row
	val        []float64
}

// CSRFromDense compresses a dense matrix, retaining exactly the nonzero
// entries (no thresholding: sparsity must already be structural).
func CSRFromDense(m *Matrix) *CSR {
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	s := &CSR{
		rows:   m.Rows,
		cols:   m.Cols,
		rowPtr: make([]int32, m.Rows+1),
		colIdx: make([]int32, 0, nnz),
		val:    make([]float64, 0, nnz),
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				s.colIdx = append(s.colIdx, int32(j))
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[i+1] = int32(len(s.val))
	}
	return s
}

// Rows returns the row count.
func (s *CSR) Rows() int { return s.rows }

// Cols returns the column count.
func (s *CSR) Cols() int { return s.cols }

// NNZ returns the number of stored nonzeros.
func (s *CSR) NNZ() int { return len(s.val) }

// Density returns nnz/(rows·cols), or 0 for an empty shape.
func (s *CSR) Density() float64 {
	if s.rows == 0 || s.cols == 0 {
		return 0
	}
	return float64(len(s.val)) / (float64(s.rows) * float64(s.cols))
}

// Dense expands the matrix back to dense row-major form.
func (s *CSR) Dense() *Matrix {
	m := NewMatrix(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := m.Row(i)
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			row[s.colIdx[p]] = s.val[p]
		}
	}
	return m
}

// Transpose returns the CSR form of sᵀ (a column-major walk of s, so the
// result's rows are again sorted by column index).
func (s *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   s.cols,
		cols:   s.rows,
		rowPtr: make([]int32, s.cols+1),
		colIdx: make([]int32, len(s.val)),
		val:    make([]float64, len(s.val)),
	}
	// Counting sort by column: count, prefix-sum, scatter.
	for _, j := range s.colIdx {
		t.rowPtr[j+1]++
	}
	for j := 0; j < s.cols; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	next := make([]int32, s.cols)
	copy(next, t.rowPtr[:s.cols])
	for i := 0; i < s.rows; i++ {
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			j := s.colIdx[p]
			q := next[j]
			next[j]++
			t.colIdx[q] = int32(i)
			t.val[q] = s.val[p]
		}
	}
	return t
}

// MulVecInto stores s·x into dst and returns dst. dst must not alias x.
func (s *CSR) MulVecInto(dst, x Vector) Vector {
	if len(x) != s.cols {
		panic(fmt.Sprintf("mat: CSR MulVec len(x)=%d want %d", len(x), s.cols))
	}
	if len(dst) != s.rows {
		panic(fmt.Sprintf("mat: CSR MulVec len(dst)=%d want %d", len(dst), s.rows))
	}
	for i := 0; i < s.rows; i++ {
		var acc float64
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			acc += s.val[p] * x[s.colIdx[p]]
		}
		dst[i] = acc
	}
	return dst
}

// VecMulInto stores xᵀ·s into dst and returns dst. dst must not alias x.
func (s *CSR) VecMulInto(dst, x Vector) Vector {
	if len(x) != s.rows {
		panic(fmt.Sprintf("mat: CSR VecMul len(x)=%d want %d", len(x), s.rows))
	}
	if len(dst) != s.cols {
		panic(fmt.Sprintf("mat: CSR VecMul len(dst)=%d want %d", len(dst), s.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			dst[s.colIdx[p]] += xi * s.val[p]
		}
	}
	return dst
}

// parallelSparseFlops is the multiply-add count above which the
// matrix-level CSR product splits its output rows across CPUs. Sparse
// multiply-adds carry an index load each, so the cutoff sits below the
// dense kernel's.
const parallelSparseFlops = 1 << 19

// MulMatInto computes dst = s·b (CSR × dense), the Commit-update form
// Mᵀ·Op when called on a precomputed transpose, reading each row of b
// only inside its band bBand (entries outside |i−j| ≤ bBand must be
// exactly zero; pass ≥ b.Cols−1 for a full matrix). dst must not alias
// b and must have shape s.Rows × b.Cols. Rows are split across CPUs
// above a work cutoff, one writer per row in the serial loop's order, so
// the result is bit-deterministic.
func (s *CSR) MulMatInto(dst, b *Matrix, bBand int) {
	if s.cols != b.Rows {
		panic(fmt.Sprintf("mat: CSR MulMat inner dims %d vs %d", s.cols, b.Rows))
	}
	if dst.Rows != s.rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: CSR MulMat dst %d×%d want %d×%d", dst.Rows, dst.Cols, s.rows, b.Cols))
	}
	if sameBacking(dst.Data, b.Data) {
		panic("mat: CSR MulMatInto dst aliases an operand")
	}
	// Serial path stays closure-free: 0 allocs/op (see MulInto).
	if !par.Default().Parallel(s.rows, int64(s.NNZ())*int64(b.Cols), parallelSparseFlops) {
		s.mulMatRows(dst, b, bBand, 0, s.rows)
		return
	}
	par.Default().For(s.rows, func(lo, hi int) { s.mulMatRows(dst, b, bBand, lo, hi) })
}

// mulMatRows computes rows [lo,hi) of dst = s·b.
func (s *CSR) mulMatRows(dst, b *Matrix, bBand, lo, hi int) {
	bc := b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*bc : (i+1)*bc]
		for j := range drow {
			drow[j] = 0
		}
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			sv := s.val[p]
			k := int(s.colIdx[p])
			j0, j1 := max(k-bBand, 0), min(k+bBand, bc-1)
			dseg := drow[j0 : j1+1]
			for j, bv := range b.Data[k*bc+j0 : k*bc+j1+1] {
				dseg[j] += sv * bv
			}
		}
	}
}
