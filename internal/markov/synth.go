package markov

import (
	"fmt"
	"math"

	"priste/internal/grid"
	"priste/internal/mat"
)

// GaussianChain builds the synthetic mobility model of §V-A: on a grid map,
// the transition probability from one cell to another is proportional to a
// two-dimensional Gaussian kernel with scale parameter sigma centred on the
// current cell:
//
//	Pr(u_{t+1}=j | u_t=i) ∝ exp(−d(i,j)² / (2σ²))
//
// A small sigma concentrates mass on adjacent cells — a "significant"
// mobility pattern — while a large sigma approaches the uniform chain.
// Distances are in the grid's user units.
//
// The kernel is separable: exp(−(dx²+dy²)/2σ²) is the product of one
// factor per axis, and so is each row sum. The chain is therefore built
// as K_y ⊗ K_x from the two row-normalised axis kernels — each entry the
// one rounded product of its factors — and carries them (Kronecker), so
// the quantifier can apply it as two √m×√m passes instead of one m×m.
func GaussianChain(g *grid.Grid, sigma float64) (*Chain, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("markov: sigma must be positive and finite, got %g", sigma)
	}
	inv := 1 / (2 * sigma * sigma)
	kx := gaussianAxis(g.W, g.CellSize, inv)
	ky := gaussianAxis(g.H, g.CellSize, inv)
	m := g.States()
	t := mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		x, y := g.XY(i)
		row := t.Row(i)
		for j := range row {
			xj, yj := g.XY(j)
			row[j] = ky.At(y, yj) * kx.At(x, xj)
		}
	}
	c, err := NewChain(t)
	if err != nil {
		return nil, err
	}
	c.outer, c.inner = ky, kx
	return c, nil
}

// gaussianAxis returns the n×n row-normalised kernel exp(−d²·inv) over
// the distances between the centres of n cells of edge cell in a row.
func gaussianAxis(n int, cell, inv float64) *mat.Matrix {
	k := mat.NewMatrix(n, n)
	for a := 0; a < n; a++ {
		row := k.Row(a)
		for b := range row {
			d := float64(a-b) * cell
			row[b] = math.Exp(-d * d * inv)
		}
		row.Normalize()
	}
	return k
}

// LazyRandomWalk returns a chain that stays put with probability stay and
// otherwise moves to a uniformly chosen 4-neighbour (reflecting at map
// edges). A simple, strongly-local baseline mobility model used in tests
// and examples.
func LazyRandomWalk(g *grid.Grid, stay float64) (*Chain, error) {
	if stay < 0 || stay > 1 || math.IsNaN(stay) {
		return nil, fmt.Errorf("markov: stay probability %g outside [0,1]", stay)
	}
	m := g.States()
	t := mat.NewMatrix(m, m)
	for s := 0; s < m; s++ {
		x, y := g.XY(s)
		var nbrs []int
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if g.Contains(nx, ny) {
				nbrs = append(nbrs, g.State(nx, ny))
			}
		}
		row := t.Row(s)
		row[s] = stay
		if len(nbrs) == 0 {
			row[s] = 1
			continue
		}
		p := (1 - stay) / float64(len(nbrs))
		for _, n := range nbrs {
			row[n] += p
		}
	}
	return NewChain(t)
}
