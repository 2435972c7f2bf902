package lppm

import (
	"fmt"
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
// rows differ by at most e^{α·d}); the continuous sampler is also provided
// (SampleContinuous) for applications wanting un-discretised output.
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

// Grid returns the underlying map.
func (p *PlanarLaplace) Grid() *grid.Grid { return p.g }

// Begin implements Perturber.
func (p *PlanarLaplace) Begin(int) error { return nil }

// Observe implements Perturber.
func (p *PlanarLaplace) Observe(int, int, mat.Vector) error { return nil }

// HistoryIndependent marks the mechanism as history-independent: Begin and
// Observe are no-ops and Emission depends only on the budget, so one
// instance (and its emission table) can serve every session of a shared
// plan and certified release verdicts are reusable across sessions.
func (p *PlanarLaplace) HistoryIndependent() {}

// Table returns the mechanism's emission table (the per-alpha cache shared
// by every session driving this instance).
func (p *PlanarLaplace) Table() *EmissionTable { return p.table }

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

// SampleContinuous draws a perturbed point from the continuous planar
// Laplace centred on the cell center of u, in user units: the angle is
// uniform and the radius follows the distribution with density
// α²·r·e^{−αr}, sampled by inverting its CDF with the Lambert W₋₁ branch
// as in [8] §4.1.
func (p *PlanarLaplace) SampleContinuous(rng Rand, u int, alpha float64) (x, y float64, err error) {
	if err := clampFinite("alpha", alpha); err != nil {
		return 0, 0, err
	}
	if u < 0 || u >= p.States() {
		return 0, 0, fmt.Errorf("lppm: state %d outside [0,%d)", u, p.States())
	}
	cx, cy := p.g.Center(u)
	theta := rng.Float64() * 2 * math.Pi
	pr := rng.Float64()
	r := -(lambertWm1((pr-1)/math.E) + 1) / alpha
	// float64(x*y) forbids the fused multiply-add gc emits on arm64 (here
	// and in lambertWm1), so a draw snaps to the same cell on every machine.
	return cx + float64(r*math.Cos(theta)), cy + float64(r*math.Sin(theta)), nil
}

// SampleSnapped draws from the continuous planar Laplace and snaps the
// result back onto the grid (clamping at the map boundary).
func (p *PlanarLaplace) SampleSnapped(rng Rand, u int, alpha float64) (int, error) {
	x, y, err := p.SampleContinuous(rng, u, alpha)
	if err != nil {
		return 0, err
	}
	return p.g.Snap(x, y), nil
}

// GeoIndistinguishabilityLevel returns the certified geo-indistinguishability
// parameter of the discretised emission at budget alpha (2α; see the type
// comment).
func (p *PlanarLaplace) GeoIndistinguishabilityLevel(alpha float64) float64 {
	return 2 * alpha
}

// lambertWm1 evaluates the W₋₁ branch of the Lambert W function for
// x ∈ [−1/e, 0), i.e. the solution w ≤ −1 of w·eʷ = x. Halley iteration
// from an asymptotic initial guess; accurate to ~1e-12 on the domain.
func lambertWm1(x float64) float64 {
	if x >= 0 || x < -1/math.E {
		return math.NaN()
	}
	if x == -1/math.E {
		return -1
	}
	// Initial guess: for x → 0⁻, w ≈ ln(−x) − ln(−ln(−x)); near −1/e use a
	// square-root expansion.
	var w float64
	if x > -0.25 {
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2
	} else {
		p := -math.Sqrt(2 * (1 + float64(math.E*x)))
		w = -1 + p - p*p/3
	}
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := float64(w*ew) - x
		// Halley step.
		denom := float64(ew*(w+1)) - (w+2)*f/(2*w+2)
		dw := f / denom
		w -= dw
		if math.Abs(dw) < 1e-14*(1+math.Abs(w)) {
			break
		}
	}
	return w
}
