package mat

import (
	"math/rand/v2"
	"testing"
)

// randomNonNeg returns a rows×cols matrix of non-negative entries with
// the given zero fraction (the engine's operators and transition matrices
// are non-negative; bit-identity of the kernels is claimed on that
// domain).
func randomNonNeg(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			continue
		}
		m.Data[i] = rng.Float64()
	}
	return m
}

func TestMulABtIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// Sizes straddle the micro-kernel's 4-row/2-column blocking remainders
	// and (at 300+) the parallel split.
	for _, sz := range []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 2}, {4, 4, 4}, {5, 7, 3}, {6, 5, 9},
		{17, 13, 19}, {32, 32, 32}, {33, 31, 35}, {300, 300, 300},
	} {
		for _, zero := range []float64{0, 0.5, 0.95} {
			a := randomNonNeg(rng, sz.m, sz.k, zero)
			b := randomNonNeg(rng, sz.k, sz.n, zero)
			want := NewMatrix(sz.m, sz.n)
			MulInto(want, a, b)
			got := NewMatrix(sz.m, sz.n)
			MulABtInto(got, a, b.Transpose())
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("size %v zero=%g: element %d differs: naive %v blocked %v",
						sz, zero, i, want.Data[i], got.Data[i])
				}
			}
		}
	}
}

func BenchmarkMulNaive400(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randomNonNeg(rng, 400, 400, 0)
	m := randomNonNeg(rng, 400, 400, 0)
	dst := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, m)
	}
}

func BenchmarkMulBlocked400(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randomNonNeg(rng, 400, 400, 0)
	m := randomNonNeg(rng, 400, 400, 0)
	mt := m.Transpose()
	dst := NewMatrix(400, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulABtInto(dst, a, mt)
	}
}
