package mat

// float32 shadow forms.
//
// The shadow check path (see world.Quantifier) runs the Theorem IV.1
// Check matvecs against float32 copies of the step kernels and forward
// operators: half the memory traffic of the float64 forms on a path that
// is bandwidth-bound at the paper's m=400. Accumulation stays in
// float64 over widened float32 entries, so the only rounding a term
// picks up is the single float64→float32 conversion of each operand
// entry — on the engine's non-negative data there is no cancellation,
// and the relative error of every accumulated component is bounded by a
// small multiple of 2⁻²⁴ independent of m. The certified bound consumed
// by qp.CheckReleaseShadow builds on exactly that property.
//
// Conversions take an explicit scale factor: the float64 operators are
// kept inside a wide magnitude band [1e-100, 1e100] that float32 cannot
// represent, so the shadow copies are normalised by the operator's known
// maximum entry. Entries that still land below the smallest normal
// float32 are flushed to zero — they are ~1e-38 relative to the maximum,
// far below the certified bound, and loading subnormal float32 values
// would cost microcode assists on the hot path.

// smallestNormal32 is the smallest positive normal float32 (2⁻¹²⁶).
const smallestNormal32 = 0x1p-126

// Matrix32 is a dense row-major float32 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 returns a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ConvertScaled fills dst with float32(src[i][j] · inv), flushing
// magnitudes below the smallest normal float32 to zero. Shapes must
// match.
func (dst *Matrix32) ConvertScaled(src *Matrix, inv float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: ConvertScaled shape mismatch")
	}
	for i, v := range src.Data {
		v *= inv
		if v < smallestNormal32 && v > -smallestNormal32 {
			dst.Data[i] = 0
			continue
		}
		dst.Data[i] = float32(v)
	}
}

// MulVecInto computes dst = a·x with float64 accumulation. dst must not
// alias x.
func (a *Matrix32) MulVecInto(dst Vector, x Vector) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic("mat: Matrix32 MulVec shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for k, av := range row {
			s += float64(float64(av) * x[k])
		}
		dst[i] = s
	}
}

// VecMulInto computes dst = xᵀ·a (a row vector) with float64
// accumulation and returns dst. dst must not alias x.
func (a *Matrix32) VecMulInto(dst Vector, x Vector) Vector {
	if len(x) != a.Rows || len(dst) != a.Cols {
		panic("mat: Matrix32 VecMul shape mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, av := range row {
			dst[j] += float64(xi * float64(av))
		}
	}
	return dst
}

// CSR32 is the float32 shadow of a CSR matrix: it shares the row
// pointers and column indices of the float64 form and carries only a
// float32 value array.
type CSR32 struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	val        []float32
}

// Shadow32 returns the float32 shadow of c (values converted unscaled;
// transition-matrix entries live in [0,1]).
func (c *CSR) Shadow32() *CSR32 {
	s := &CSR32{rows: c.rows, cols: c.cols, rowPtr: c.rowPtr, colIdx: c.colIdx,
		val: make([]float32, len(c.val))}
	for i, v := range c.val {
		s.val[i] = float32(v)
	}
	return s
}

// MulVecInto computes dst = c·x with float64 accumulation. dst must not
// alias x.
func (c *CSR32) MulVecInto(dst Vector, x Vector) {
	if len(x) != c.cols || len(dst) != c.rows {
		panic("mat: CSR32 MulVec shape mismatch")
	}
	for i := 0; i < c.rows; i++ {
		var s float64
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			s += float64(float64(c.val[p]) * x[c.colIdx[p]])
		}
		dst[i] = s
	}
}

// Shadow32Scaled returns a float32 copy of a dense matrix scaled by inv
// (see ConvertScaled).
func Shadow32Scaled(src *Matrix, inv float64) *Matrix32 {
	dst := NewMatrix32(src.Rows, src.Cols)
	dst.ConvertScaled(src, inv)
	return dst
}
