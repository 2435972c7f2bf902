package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randomBanded returns an m×m non-negative matrix with all nonzeros in
// |i−j| ≤ band and the given interior zero fraction.
func randomBanded(rng *rand.Rand, m, band int, zeroFrac float64) *Matrix {
	a := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := max(0, i-band); j <= min(m-1, i+band); j++ {
			if rng.Float64() < zeroFrac {
				continue
			}
			a.Set(i, j, rng.Float64())
		}
	}
	return a
}

func TestBandwidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, tc := range []struct{ m, band int }{
		{1, 0}, {5, 0}, {8, 1}, {20, 3}, {30, 29}, {17, 16},
	} {
		a := randomBanded(rng, tc.m, tc.band, 0)
		if got := Bandwidth(a); got != tc.band {
			t.Fatalf("m=%d band=%d: Bandwidth = %d", tc.m, tc.band, got)
		}
	}
	if got := Bandwidth(NewMatrix(7, 7)); got != 0 {
		t.Fatalf("zero matrix bandwidth = %d", got)
	}
}

func TestMulBandIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	// bBand 0 (a diagonal b, as B₁ = I and the first forward operator
	// are) takes the column-scaling path.
	for _, tc := range []struct{ m, aBand, bBand int }{
		{1, 0, 0}, {6, 0, 2}, {6, 2, 0}, {9, 1, 3}, {25, 4, 4},
		{40, 7, 39}, {40, 39, 7}, {33, 32, 32}, {300, 12, 5},
		{7, 0, 0}, {40, 39, 0}, {100, 99, 0}, {300, 12, 0},
	} {
		a := randomBanded(rng, tc.m, tc.aBand, 0.3)
		b := randomBanded(rng, tc.m, tc.bBand, 0.3)
		want := NewMatrix(tc.m, tc.m)
		MulInto(want, a, b)
		got := NewMatrix(tc.m, tc.m)
		got.Data[0] = math.NaN() // must be fully overwritten/zeroed
		MulBandInto(got, a, b, tc.aBand, tc.bBand)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("m=%d bands=(%d,%d): element %d differs: naive %v banded %v",
					tc.m, tc.aBand, tc.bBand, i, want.Data[i], got.Data[i])
			}
		}
		// The CSR product reads b inside the same declared band.
		got.Data[0] = math.NaN()
		CSRFromDense(a).MulMatInto(got, b, tc.bBand)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("m=%d bands=(%d,%d): CSR element %d differs", tc.m, tc.aBand, tc.bBand, i)
			}
		}
	}
}

// TestRowMulIntoBandedMatchesDot: the band-limited row product on the
// transposed operator is the matvec a·x the quantifier's checks need
// (the band of aᵀ is the band of a), bit for bit against the row dots.
func TestRowMulIntoBandedMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, tc := range []struct{ m, band int }{
		{1, 0}, {7, 0}, {12, 3}, {40, 39}, {55, 9},
	} {
		a := randomBanded(rng, tc.m, tc.band, 0.2)
		x := make(Vector, tc.m)
		for i := range x {
			x[i] = rng.Float64()
		}
		want := make(Vector, tc.m)
		a.MulVecInto(want, x)
		got := make(Vector, tc.m)
		got[0] = math.NaN() // must be fully overwritten
		RowMulInto(got, x, a.Transpose(), tc.band)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("m=%d band=%d: element %d differs", tc.m, tc.band, i)
			}
		}
	}
}
