package mat

import (
	"math/rand"
	"testing"
)

func benchMatrix(n int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// BenchmarkMulInto measures the dense kernel at the map size of the
// paper's experiments (m = 400 states for a 20×20 grid); the release loop
// performs two of these per committed timestamp.
func BenchmarkMulInto(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(sizeName(n), func(b *testing.B) {
			x, y := benchMatrix(n), benchMatrix(n)
			dst := NewMatrix(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulInto(dst, x, y)
			}
		})
	}
}

// BenchmarkVecMul measures the row-vector product used by every condition
// check.
func BenchmarkVecMul(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(sizeName(n), func(b *testing.B) {
			m := benchMatrix(n)
			x := NewVector(n)
			for i := range x {
				x[i] = 1 / float64(n)
			}
			dst := NewVector(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.VecMulInto(dst, x)
			}
		})
	}
}

// benchSparse returns an n×n matrix with ~nnzPerRow nonzeros per row —
// the structure of a local grid mobility kernel.
func benchSparse(n, nnzPerRow int) *Matrix {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for k := 0; k < nnzPerRow; k++ {
			row[rng.Intn(n)] = rng.Float64()
		}
	}
	return m
}

// BenchmarkCSRMulVec measures the sparse matvec against the dense one at
// the candidate-check shape (m=400, ~5 neighbours per state).
func BenchmarkCSRMulVec(b *testing.B) {
	const n = 400
	m := benchSparse(n, 5)
	s := CSRFromDense(m)
	x := NewVector(n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	dst := NewVector(n)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.MulVecInto(dst, x)
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.MulVecInto(dst, x)
		}
	})
}

// BenchmarkCSRMulMat measures the Commit-update product Mᵀ·Op (sparse ×
// dense) against the dense kernel at the same shape.
func BenchmarkCSRMulMat(b *testing.B) {
	const n = 400
	m := benchSparse(n, 5)
	s := CSRFromDense(m)
	a := benchMatrix(n)
	dst := NewMatrix(n, n)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulInto(dst, m, a)
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.MulMatInto(dst, a, n-1)
		}
	})
}

// BenchmarkSymEigen measures the Jacobi eigensolver (QP diagnostics only;
// not on the release hot path).
func BenchmarkSymEigen(b *testing.B) {
	n := 60
	m := benchMatrix(n)
	t := m.Transpose()
	AddInto(m, m, t)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEigen(m); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	if n >= 400 {
		return "m400"
	}
	return "m100"
}
