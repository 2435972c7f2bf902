package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorSumMinMax(t *testing.T) {
	v := Vector{3, -1, 2}
	if v.Sum() != 4 {
		t.Errorf("Sum = %v", v.Sum())
	}
	if v.Max() != 3 {
		t.Errorf("Max = %v", v.Max())
	}
	if v.Min() != -1 {
		t.Errorf("Min = %v", v.Min())
	}
	if v.AbsMax() != 3 {
		t.Errorf("AbsMax = %v", v.AbsMax())
	}
	if v.ArgMax() != 0 {
		t.Errorf("ArgMax = %v", v.ArgMax())
	}
}

func TestVectorEmptyExtremes(t *testing.T) {
	var v Vector
	if !math.IsInf(v.Max(), -1) || !math.IsInf(v.Min(), 1) {
		t.Errorf("empty Max/Min = %v/%v", v.Max(), v.Min())
	}
	if v.ArgMax() != -1 {
		t.Errorf("empty ArgMax = %d", v.ArgMax())
	}
}

func TestVectorNormalize(t *testing.T) {
	v := Vector{1, 3}
	s := v.Normalize()
	if s != 4 {
		t.Fatalf("Normalize returned %v, want 4", s)
	}
	if !v.EqualApprox(Vector{0.25, 0.75}, 1e-15) {
		t.Fatalf("normalized = %v", v)
	}
}

func TestVectorNormalizeZero(t *testing.T) {
	v := Vector{0, 0}
	if s := v.Normalize(); s != 0 {
		t.Fatalf("Normalize(zero) = %v, want 0", s)
	}
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("zero vector mutated: %v", v)
	}
}

func TestVectorHadamard(t *testing.T) {
	got := Vector{1, 2, 3}.Hadamard(Vector{2, 0, -1})
	if !got.EqualApprox(Vector{2, 0, -3}, 0) {
		t.Fatalf("Hadamard = %v", got)
	}
}

func TestVectorAddSubInPlaceAliasing(t *testing.T) {
	v := Vector{1, 2}
	v.AddInto(v, Vector{3, 4})
	if !v.EqualApprox(Vector{4, 6}, 0) {
		t.Fatalf("AddInto alias = %v", v)
	}
}

func TestIsDistribution(t *testing.T) {
	if !(Vector{0.5, 0.5}).IsDistribution(1e-9) {
		t.Error("uniform should be a distribution")
	}
	if (Vector{0.5, 0.6}).IsDistribution(1e-9) {
		t.Error("sum 1.1 should fail")
	}
	if (Vector{-0.1, 1.1}).IsDistribution(1e-9) {
		t.Error("negative element should fail")
	}
	if (Vector{math.NaN(), 1}).IsDistribution(1e-9) {
		t.Error("NaN should fail")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	m.Set(1, 0, 9)
	if m.At(1, 0) != 9 {
		t.Fatalf("after Set, At = %v", m.At(1, 0))
	}
	if got := m.Col(1); !got.EqualApprox(Vector{2, 4}, 0) {
		t.Fatalf("Col(1) = %v", got)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

// mul returns a·b through MulInto.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

func TestIdentityAndMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	i2 := Identity(2)
	if !mul(a, i2).EqualApprox(a, 0) {
		t.Fatal("A·I != A")
	}
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, 1e-12) {
		t.Fatalf("Mul = \n%v want \n%v", got, want)
	}
}

func TestMulRectangular(t *testing.T) {
	a := FromRows([][]float64{{1, 0, 2}})     // 1×3
	b := FromRows([][]float64{{1}, {1}, {1}}) // 3×1
	if got := mul(a, b); got.At(0, 0) != 3 || got.Rows != 1 || got.Cols != 1 {
		t.Fatalf("Mul rect = %v", got)
	}
}

func TestMulIntoAliasPanics(t *testing.T) {
	a := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when dst aliases operand")
		}
	}()
	MulInto(a, a, Identity(2))
}

func TestMulVecAndVecMul(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := m.MulVec(Vector{1, 1}); !got.EqualApprox(Vector{3, 7}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	if got := m.VecMul(Vector{1, 1}); !got.EqualApprox(Vector{4, 6}, 0) {
		t.Fatalf("VecMul = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.Transpose()
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("Transpose = \n%v", got)
	}
}

// scaleCols returns a·diag(d) through the dense product: a diagonal
// right operand is a column scaling.
func scaleCols(a *Matrix, d Vector) *Matrix {
	dg := NewMatrix(len(d), len(d))
	for i, v := range d {
		dg.Set(i, i, v)
	}
	out := NewMatrix(a.Rows, len(d))
	MulInto(out, a, dg)
	return out
}

func TestScaleRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	sc := scaleCols(m, Vector{10, 1})
	if !sc.EqualApprox(FromRows([][]float64{{10, 2}, {30, 4}}), 0) {
		t.Fatalf("ScaleCols = \n%v", sc)
	}
	sr := NewMatrix(2, 2)
	if best := ScaleRowsMaxInto(sr, m, Vector{10, 1}); best != 20 {
		t.Fatalf("ScaleRowsMax max = %v, want 20", best)
	}
	if !sr.EqualApprox(FromRows([][]float64{{10, 20}, {3, 4}}), 0) {
		t.Fatalf("ScaleRows = \n%v", sr)
	}
	// Aliased in-place form.
	if best := ScaleRowsMaxInto(m, m, Vector{-1, 0}); best != 2 {
		t.Fatalf("ScaleRowsMax alias max = %v, want 2", best)
	}
	if !m.EqualApprox(FromRows([][]float64{{-1, -2}, {0, 0}}), 0) {
		t.Fatalf("ScaleRows alias = \n%v", m)
	}
}

func TestIsRowStochastic(t *testing.T) {
	m := FromRows([][]float64{{0.5, 0.5}, {0.1, 0.9}})
	if !m.IsRowStochastic(1e-12) {
		t.Fatal("expected stochastic")
	}
	m.Set(0, 0, 0.6)
	if m.IsRowStochastic(1e-12) {
		t.Fatal("expected non-stochastic")
	}
}

// Property: (A·B)·x == A·(B·x) for random stochastic-ish matrices.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a, b := randomMatrix(rng, n), randomMatrix(rng, n)
		x := randomVector(rng, n)
		left := mul(a, b).MulVec(x)
		right := a.MulVec(b.MulVec(x))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: VecMul(x, M) == Transpose(M)·x.
func TestVecMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := randomMatrix(rng, n)
		x := randomVector(rng, n)
		return m.VecMul(x).EqualApprox(m.Transpose().MulVec(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScaleCols(A, d)·x == A·(d∘x).
func TestScaleColsDiagonalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n)
		d, x := randomVector(rng, n), randomVector(rng, n)
		left := scaleCols(a, d).MulVec(x)
		right := a.MulVec(d.Hadamard(x))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
