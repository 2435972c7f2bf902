package qp

import (
	"math/rand"
	"testing"

	"priste/internal/mat"
)

// benchProblem mimics the PriSTE condition structure: a ∈ [0,1]ⁿ event
// probabilities, w mixing positive joint terms against negative marginal
// terms, q small.
func benchProblem(n int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	p := Problem{A: make(mat.Vector, n), W: make(mat.Vector, n), Q: make(mat.Vector, n)}
	for i := 0; i < n; i++ {
		p.A[i] = rng.Float64()
		c := rng.Float64()
		bjoint := c * rng.Float64() * p.A[i]
		p.W[i] = 0.6*bjoint - 1.6*c
		p.Q[i] = bjoint
	}
	return p
}

// BenchmarkSolve measures one certified condition check at the paper's map
// sizes. BenchmarkCheckRelease (harvest_test.go) times whole release
// checks on candidates harvested from real sessions.
func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{100, 400} {
		name := "m100"
		if n == 400 {
			name = "m400"
		}
		b.Run(name, func(b *testing.B) {
			p := benchProblem(n, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
