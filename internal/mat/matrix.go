package mat

import (
	"fmt"
	"math"

	"priste/internal/par"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), c))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Col returns a copy of column j. Hot paths that extract a column per
// call should use ColInto with a reused buffer instead.
func (m *Matrix) Col(j int) Vector {
	return m.ColInto(NewVector(m.Rows), j)
}

// ColInto stores column j into dst and returns dst.
func (m *Matrix) ColInto(dst Vector, j int) Vector {
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: ColInto len(dst)=%d want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Zero sets every element to 0 and returns m.
func (m *Matrix) Zero() *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Scale multiplies every element by c in place and returns m.
func (m *Matrix) Scale(c float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= c
	}
	return m
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVec returns m·x (treating x as a column vector).
func (m *Matrix) MulVec(x Vector) Vector {
	return m.MulVecInto(NewVector(m.Rows), x)
}

// MulVecInto stores m·x into dst and returns dst. dst must not alias x.
func (m *Matrix) MulVecInto(dst, x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec len(x)=%d want %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec len(dst)=%d want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(x)
	}
	return dst
}

// VecMul returns xᵀ·m as a row vector (length m.Cols).
func (m *Matrix) VecMul(x Vector) Vector {
	return m.VecMulInto(NewVector(m.Cols), x)
}

// VecMulInto stores xᵀ·m into dst and returns dst. dst must not alias x.
func (m *Matrix) VecMulInto(dst, x Vector) Vector {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("mat: VecMul len(x)=%d want %d", len(x), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: VecMul len(dst)=%d want %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst[j] += float64(xi * v)
		}
	}
	return dst
}

// parallelFlops is the dense multiply-add count above which the matrix
// kernels fan tiles out through the shared worker pool; ~2·10⁷
// multiply-adds amortise the fork-join dispatch comfortably.
const parallelFlops = 1 << 24

// MulInto computes dst = a·b. dst must not alias a or b and must have shape
// a.Rows × b.Cols. The kernel is an i-k-j loop which is cache-friendly for
// row-major storage; products large enough to matter (the 400-state maps
// of the paper's experiments) are split row-wise across the shared pool.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul dst %d×%d want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if sameBacking(dst.Data, a.Data) || sameBacking(dst.Data, b.Data) {
		panic("mat: MulInto dst aliases an operand")
	}
	// Branch before the closure literal: the serial path must not
	// materialise a func value, keeping the hot multiply at 0 allocs/op
	// (asserted by TestSerialKernelsZeroAlloc).
	if !par.Default().Parallel(a.Rows, int64(a.Rows)*int64(a.Cols)*int64(b.Cols), parallelFlops) {
		mulRows(dst, a, b, 0, a.Rows)
		return
	}
	par.Default().For(a.Rows, func(lo, hi int) { mulRows(dst, a, b, lo, hi) })
}

// mulRows computes rows [lo,hi) of dst = a·b.
func mulRows(dst, a, b *Matrix, lo, hi int) {
	bc := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*bc : (i+1)*bc]
		for j := range drow {
			drow[j] = 0
		}
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*bc : (k+1)*bc]
			for j, bkj := range brow {
				drow[j] += float64(aik * bkj)
			}
		}
	}
}

func sameBacking(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// ScaleRowsMaxInto stores diag(d)·a into dst (row i scaled by d[i]) and
// returns the largest absolute element written, saving the hot loop a
// second full pass. dst may alias a.
func ScaleRowsMaxInto(dst, a *Matrix, d Vector) float64 {
	if len(d) != a.Rows {
		panic(fmt.Sprintf("mat: ScaleRowsMax len(d)=%d want %d", len(d), a.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("mat: ScaleRowsMax dst shape mismatch")
	}
	var best float64
	for i := 0; i < a.Rows; i++ {
		src := a.Data[i*a.Cols : (i+1)*a.Cols]
		out := dst.Data[i*a.Cols : (i+1)*a.Cols]
		di := d[i]
		for j, v := range src {
			s := v * di
			out[j] = s
			if s := math.Abs(s); s > best {
				best = s
			}
		}
	}
	return best
}

// EqualApprox reports whether m and n share a shape and agree elementwise
// within tol.
func (m *Matrix) EqualApprox(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsRowStochastic reports whether every row of m is a probability
// distribution within tol.
func (m *Matrix) IsRowStochastic(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		if !m.Row(i).IsDistribution(tol) {
			return false
		}
	}
	return true
}
