package lppm

import (
	"fmt"
	"math"
	"sort"

	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

// DeltaLocationSet implements the δ-location-set mechanism of §IV-D
// [Xiao & Xiong, CCS 2015; LocLok, VLDB 2017]: at each timestamp the
// Markov prior p⁻ₜ = p⁺ₜ₋₁·M is advanced, the δ-location set ΔXₜ — the
// minimal set of states whose prior mass is at least 1−δ — is constructed,
// and the underlying planar Laplace mechanism is restricted to ΔXₜ (both
// its input surrogate and its output domain). After a release the
// posterior p⁺ₜ is updated by Bayes' rule (Eq. 21).
//
// True locations outside ΔXₜ are mapped to the nearest cell inside the set
// (the "surrogate" of [9]) before perturbation, so the emission matrix
// stays defined for every state.
type DeltaLocationSet struct {
	g     *grid.Grid
	chain *markov.Chain
	delta float64

	post  mat.Vector // p⁺ at the previous timestamp
	prior mat.Vector // p⁻ at the current timestamp
	set   []int      // ΔXₜ, sorted by state index
	inSet []bool

	cur     int // current timestamp, -1 before the first Begin
	em      *mat.Matrix
	emAlpha float64
	dist    *mat.Matrix
}

// NewDeltaLocationSet returns a mechanism with initial distribution pi
// (the paper's experiments use uniform).
func NewDeltaLocationSet(g *grid.Grid, chain *markov.Chain, pi mat.Vector, delta float64) (*DeltaLocationSet, error) {
	m := g.States()
	if chain.States() != m {
		return nil, fmt.Errorf("lppm: chain has %d states, grid has %d", chain.States(), m)
	}
	if len(pi) != m {
		return nil, fmt.Errorf("lppm: pi length %d want %d", len(pi), m)
	}
	if !pi.IsDistribution(1e-8) {
		return nil, fmt.Errorf("lppm: pi is not a distribution")
	}
	if delta < 0 || delta >= 1 {
		return nil, fmt.Errorf("lppm: delta %g outside [0,1)", delta)
	}
	return &DeltaLocationSet{
		g:     g,
		chain: chain,
		delta: delta,
		post:  pi.Clone(),
		cur:   -1,
		dist:  g.DistanceMatrix(),
	}, nil
}

// States implements Perturber.
func (d *DeltaLocationSet) States() int { return d.g.States() }

// Begin implements Perturber: advances the Markov prior and rebuilds ΔXₜ.
func (d *DeltaLocationSet) Begin(t int) error {
	if t != d.cur+1 {
		return fmt.Errorf("lppm: Begin(%d) out of order, expected %d", t, d.cur+1)
	}
	d.cur = t
	if t == 0 {
		// p⁻₀ is the initial distribution itself (p⁺₋₁ = π, no transition
		// precedes the first timestamp).
		d.prior = d.post.Clone()
	} else {
		d.prior = d.chain.Step(d.post)
	}
	d.buildSet()
	d.em = nil
	d.emAlpha = 0
	return nil
}

// buildSet selects the minimal prefix of states, by decreasing prior
// probability, whose mass reaches 1−δ.
func (d *DeltaLocationSet) buildSet() {
	m := d.States()
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return d.prior[idx[a]] > d.prior[idx[b]] })
	need := 1 - d.delta
	var acc float64
	var set []int
	for _, s := range idx {
		set = append(set, s)
		acc += d.prior[s]
		if acc >= need-1e-12 {
			break
		}
	}
	sort.Ints(set)
	d.set = set
	d.inSet = make([]bool, m)
	for _, s := range set {
		d.inSet[s] = true
	}
}

// surrogate returns the nearest in-set state to u (u itself if inside).
func (d *DeltaLocationSet) surrogate(u int) int {
	if d.inSet[u] {
		return u
	}
	best, bd := d.set[0], d.dist.At(u, d.set[0])
	for _, s := range d.set[1:] {
		if dd := d.dist.At(u, s); dd < bd {
			best, bd = s, dd
		}
	}
	return best
}

// Emission implements Perturber: a planar Laplace restricted to ΔXₜ. Row i
// is the normalised exponential kernel from surrogate(i) over the in-set
// columns only; out-of-set columns have probability zero.
func (d *DeltaLocationSet) Emission(alpha float64) (*mat.Matrix, error) {
	if d.cur < 0 {
		return nil, fmt.Errorf("lppm: Emission before Begin")
	}
	if err := clampFinite("alpha", alpha); err != nil {
		return nil, err
	}
	if d.em != nil && d.emAlpha == alpha {
		return d.em, nil
	}
	m := d.States()
	e := mat.NewMatrix(m, m)
	// Rows are identical for states sharing a surrogate; compute kernels
	// once per in-set anchor.
	kernels := make(map[int]mat.Vector, len(d.set))
	kernel := func(anchor int) mat.Vector {
		if k, ok := kernels[anchor]; ok {
			return k
		}
		k := mat.NewVector(m)
		for _, j := range d.set {
			k[j] = math.Exp(-alpha * d.dist.At(anchor, j))
		}
		k.Normalize()
		kernels[anchor] = k
		return k
	}
	for i := 0; i < m; i++ {
		copy(e.Row(i), kernel(d.surrogate(i)))
	}
	if err := ValidateEmission(e); err != nil {
		return nil, err
	}
	d.em = e
	d.emAlpha = alpha
	return e, nil
}

// Observe implements Perturber: Bayes posterior update (Eq. 21) using the
// emission column the framework actually released with. When col is nil
// the column of the most recent Emission matrix is used.
func (d *DeltaLocationSet) Observe(t, obs int, col mat.Vector) error {
	if t != d.cur {
		return fmt.Errorf("lppm: Observe(%d) does not match current timestamp %d", t, d.cur)
	}
	if obs < 0 || obs >= d.States() {
		return fmt.Errorf("lppm: observation %d outside [0,%d)", obs, d.States())
	}
	if col == nil {
		if d.em == nil {
			return fmt.Errorf("lppm: Observe before Emission and without a column")
		}
		col = d.em.Col(obs)
	}
	if len(col) != d.States() {
		return fmt.Errorf("lppm: emission column length %d want %d", len(col), d.States())
	}
	post := mat.NewVector(d.States())
	for i := range post {
		post[i] = d.prior[i] * col[i]
	}
	if post.Normalize() == 0 {
		// The observation was impossible under the prior (e.g. drawn by a
		// different mechanism); fall back to the prior rather than
		// corrupting the filter.
		post = d.prior.Clone()
	}
	d.post = post
	return nil
}

// Posterior returns a copy of the current posterior p⁺.
func (d *DeltaLocationSet) Posterior() mat.Vector { return d.post.Clone() }
