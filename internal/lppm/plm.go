package lppm

import (
	"math"

	"priste/internal/grid"
	"priste/internal/mat"
)

// PlanarLaplace is the α-planar-Laplace mechanism (α-PLM) of
// Geo-indistinguishability [8], discretised to a grid map: the emission
// probability decays exponentially with the Euclidean distance between the
// true and reported cells,
//
//	Pr(o = s_j | u = s_i) ∝ exp(−α·d(s_i, s_j)).
//
// α is in units of 1/distance (1/km when the grid's cell size is in km).
// The paper's authors apply the continuous planar Laplace and then snap to
// the grid; the row-normalised discrete form used here is the standard
// exponential-mechanism discretisation and satisfies
// 2α-geo-indistinguishability exactly (the normalising constants of two
// rows differ by at most e^{α·d}).
//
// Emission matrices are cached per budget in a bounded, concurrency-safe
// EmissionTable because the PriSTE loop repeatedly halves the budget
// (α, α/2, α/4, …) and revisits the same values across timestamps — and,
// when the mechanism is shared by a compiled core.Plan, across sessions.
type PlanarLaplace struct {
	g     *grid.Grid
	dist  *mat.Matrix
	table *EmissionTable
}

// maxPLMCache bounds the emission table. Budget halving produces only a
// handful of distinct values per initial budget, so this is generous even
// for a deployment mixing several session budgets; LRU eviction keeps the
// table bounded under adversarially varied budgets.
const maxPLMCache = 64

// NewPlanarLaplace returns a PLM over the given grid.
func NewPlanarLaplace(g *grid.Grid) *PlanarLaplace {
	p := &PlanarLaplace{
		g:    g,
		dist: g.DistanceMatrix(),
	}
	p.table = NewEmissionTable(maxPLMCache, p.computeEmission)
	return p
}

// States implements Perturber.
func (p *PlanarLaplace) States() int { return p.g.States() }

// Begin implements Perturber.
func (p *PlanarLaplace) Begin(int) error { return nil }

// Observe implements Perturber.
func (p *PlanarLaplace) Observe(int, int, mat.Vector) error { return nil }

// HistoryIndependent marks the mechanism as history-independent: Begin and
// Observe are no-ops and Emission depends only on the budget, so one
// instance (and its emission table) can serve every session of a shared
// plan and certified release verdicts are reusable across sessions.
func (p *PlanarLaplace) HistoryIndependent() {}

// Emission implements Perturber. A zero or negative alpha is rejected; the
// α→0 limit (uniform output) should be modelled with the Uniform
// mechanism. Safe for concurrent use by sessions sharing the instance.
func (p *PlanarLaplace) Emission(alpha float64) (*mat.Matrix, error) {
	if err := clampFinite("alpha", alpha); err != nil {
		return nil, err
	}
	return p.table.Get(alpha)
}

// computeEmission fills one row-normalised exponential-mechanism emission
// matrix (the table's miss path).
func (p *PlanarLaplace) computeEmission(alpha float64) (*mat.Matrix, error) {
	m := p.States()
	e := mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		row := e.Row(i)
		drow := p.dist.Row(i)
		for j := 0; j < m; j++ {
			row[j] = math.Exp(-alpha * drow[j])
		}
		row.Normalize()
	}
	return e, nil
}
