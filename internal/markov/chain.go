// Package markov implements the first-order time-homogeneous Markov
// mobility model the paper uses to capture temporal correlation between a
// user's consecutive locations (§III-A), together with training from
// trajectories (replacing the R package "markovchain" used in §V-A) and the
// Gaussian-kernel synthetic transition builder of the evaluation section.
package markov

import (
	"fmt"
	"math"
	"math/rand"

	"priste/internal/mat"
)

// Chain is a finite Markov chain over m states with a row-stochastic
// transition matrix: M[i][j] = Pr(u_{t+1} = s_j | u_t = s_i).
type Chain struct {
	m int
	t *mat.Matrix

	// outer and inner are the Kronecker factors GaussianChain records:
	// t[y·w+x][y'·w+x'] = outer[y][y']·inner[x][x'] bit for bit, with w
	// = inner.Rows. Nil for every other chain.
	outer, inner *mat.Matrix
}

// StochasticTol is the tolerance used when validating row sums.
const StochasticTol = 1e-8

// NewChain validates and wraps a transition matrix. The matrix is cloned so
// later caller mutations cannot corrupt the chain.
func NewChain(t *mat.Matrix) (*Chain, error) {
	if t.Rows != t.Cols {
		return nil, fmt.Errorf("markov: transition matrix must be square, got %d×%d", t.Rows, t.Cols)
	}
	if t.Rows == 0 {
		return nil, fmt.Errorf("markov: empty transition matrix")
	}
	for i := 0; i < t.Rows; i++ {
		row := t.Row(i)
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("markov: row %d has invalid probability %g", i, v)
			}
		}
		if s := row.Sum(); math.Abs(s-1) > StochasticTol {
			return nil, fmt.Errorf("markov: row %d sums to %g, want 1", i, s)
		}
	}
	return &Chain{m: t.Rows, t: t.Clone()}, nil
}

// MustNewChain is NewChain that panics on error; for tests and literals.
func MustNewChain(t *mat.Matrix) *Chain {
	c, err := NewChain(t)
	if err != nil {
		panic(err)
	}
	return c
}

// States returns the number of states m.
func (c *Chain) States() int { return c.m }

// Matrix returns the transition matrix. Callers must not mutate it.
func (c *Chain) Matrix() *mat.Matrix { return c.t }

// Kronecker returns the factors of a chain whose matrix is outer ⊗ inner
// entry for entry — each entry the one rounded product of its two
// factors — or nil, nil. Only GaussianChain records factors. Callers
// must not mutate them.
func (c *Chain) Kronecker() (outer, inner *mat.Matrix) { return c.outer, c.inner }

// Prob returns Pr(u_{t+1}=s_j | u_t=s_i).
func (c *Chain) Prob(i, j int) float64 { return c.t.At(i, j) }

// Step returns p·M, the one-step evolution of a distribution p.
func (c *Chain) Step(p mat.Vector) mat.Vector {
	return c.t.VecMul(p)
}

// StepInto stores p·M into dst. dst must not alias p.
func (c *Chain) StepInto(dst, p mat.Vector) mat.Vector {
	return c.t.VecMulInto(dst, p)
}

// Sample draws the next state given the current state using rng.
func (c *Chain) Sample(rng *rand.Rand, cur int) int {
	return sampleIndex(rng, c.t.Row(cur))
}

// SamplePath draws a trajectory of length n starting from a state drawn
// from the initial distribution pi.
func (c *Chain) SamplePath(rng *rand.Rand, pi mat.Vector, n int) []int {
	if n <= 0 {
		return nil
	}
	path := make([]int, n)
	path[0] = sampleIndex(rng, pi)
	for t := 1; t < n; t++ {
		path[t] = c.Sample(rng, path[t-1])
	}
	return path
}

// Uniform returns the uniform distribution over m states.
func Uniform(m int) mat.Vector {
	p := mat.NewVector(m)
	for i := range p {
		p[i] = 1 / float64(m)
	}
	return p
}

// Delta returns the point-mass distribution on state s.
func Delta(m, s int) mat.Vector {
	if s < 0 || s >= m {
		panic(fmt.Sprintf("markov: delta state %d outside [0,%d)", s, m))
	}
	p := mat.NewVector(m)
	p[s] = 1
	return p
}

// PatternStrength summarises how "significant" the mobility pattern encoded
// by the chain is (§V-C, Fig. 13 discussion): the mean over rows of the
// maximum transition probability. A uniform chain scores 1/m; a
// deterministic chain scores 1.
func (c *Chain) PatternStrength() float64 {
	var s float64
	for i := 0; i < c.m; i++ {
		s += c.t.Row(i).Max()
	}
	return s / float64(c.m)
}

func sampleIndex(rng *rand.Rand, p mat.Vector) int {
	u := rng.Float64()
	var acc float64
	for i, v := range p {
		acc += v
		if u < acc {
			return i
		}
	}
	// Rounding: return the last state with non-zero probability.
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] > 0 {
			return i
		}
	}
	return len(p) - 1
}
