package mat

import (
	"math/rand"
	"testing"
)

// randSparse returns an n×n matrix with roughly density·n² nonzeros.
func randSparse(rng *rand.Rand, n int, density float64) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func randVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// sameExact compares element-for-element with ==: the sparse kernels must
// agree with the dense ones bit-for-bit (zero-sign aside), not just
// approximately — release determinism depends on it.
func sameExact(t *testing.T, label string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// csrDense expands s back to dense row-major form.
func csrDense(s *CSR) *Matrix {
	m := NewMatrix(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := m.Row(i)
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			row[s.colIdx[p]] = s.val[p]
		}
	}
	return m
}

func TestCSRRoundTripAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 33} {
		for _, d := range []float64{0, 0.05, 0.5, 1} {
			m := randSparse(rng, n, d)
			s := CSRFromDense(m)
			if !csrDense(s).EqualApprox(m, 0) {
				t.Fatalf("n=%d d=%g: Dense round trip mismatch", n, d)
			}
			nnz := 0
			for _, v := range m.Data {
				if v != 0 {
					nnz++
				}
			}
			if s.NNZ() != nnz {
				t.Fatalf("NNZ = %d, want %d", s.NNZ(), nnz)
			}
			if got, want := s.Density(), float64(nnz)/float64(n*n); got != want {
				t.Fatalf("Density = %v, want %v", got, want)
			}
			if s.rows != n || s.cols != n {
				t.Fatalf("shape %dx%d, want %dx%d", s.rows, s.cols, n, n)
			}
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 17, 40} {
		m := randSparse(rng, n, 0.12)
		got := csrDense(CSRFromDense(m).Transpose())
		if !got.EqualApprox(m.Transpose(), 0) {
			t.Fatalf("n=%d: CSR transpose mismatch", n)
		}
	}
}

func TestCSRMatchesDenseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// n=400 at ~1% density crosses the parallel cutoff for the
	// matrix-level products, exercising the goroutine split too.
	for _, tc := range []struct {
		n       int
		density float64
	}{{5, 0.4}, {60, 0.07}, {400, 0.012}} {
		m := randSparse(rng, tc.n, tc.density)
		s := CSRFromDense(m)
		x := randVec(rng, tc.n)

		sameExact(t, "MulVec", s.MulVecInto(NewVector(tc.n), x), m.MulVec(x))

		a := randSparse(rng, tc.n, 0.6)
		wantT := NewMatrix(tc.n, tc.n)
		MulInto(wantT, m.Transpose(), a)
		gotT := NewMatrix(tc.n, tc.n)
		s.Transpose().MulMatInto(gotT, a, tc.n-1)
		sameExact(t, "MulMat", gotT.Data, wantT.Data)

		// The forward commit in the transposed layout: (a·m)ᵀ = mᵀ·aᵀ,
		// term for term.
		s.Transpose().MulMatInto(gotT, a.Transpose(), tc.n-1)
		sameExact(t, "MulMat transposed", gotT.Data, mul(a, m).Transpose().Data)

		// A banded b is read only inside the declared band.
		band := tc.n / 5
		for i := range a.Data {
			if d := i/tc.n - i%tc.n; d > band || -d > band {
				a.Data[i] = 0
			}
		}
		MulInto(wantT, m.Transpose(), a)
		s.Transpose().MulMatInto(gotT, a, band)
		sameExact(t, "MulMat banded", gotT.Data, wantT.Data)
	}
}

func TestCSRShapePanics(t *testing.T) {
	s := CSRFromDense(Identity(3))
	for name, f := range map[string]func(){
		"MulVec x":    func() { s.MulVecInto(NewVector(3), NewVector(2)) },
		"MulVec dst":  func() { s.MulVecInto(NewVector(2), NewVector(3)) },
		"MulMat":      func() { s.MulMatInto(NewMatrix(3, 3), NewMatrix(2, 3), 2) },
		"MulMat dst":  func() { s.MulMatInto(NewMatrix(3, 2), NewMatrix(3, 3), 2) },
		"ColInto dst": func() { Identity(3).ColInto(NewVector(2), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestColInto(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := NewVector(2)
	if got := m.ColInto(dst, 1); !got.EqualApprox(Vector{2, 4}, 0) {
		t.Fatalf("ColInto = %v", got)
	}
	if &dst[0] != &m.ColInto(dst, 0)[0] {
		t.Fatal("ColInto does not return dst")
	}
}
