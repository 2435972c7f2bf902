package lppm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

func TestUniform(t *testing.T) {
	u, err := NewUniform(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := u.Emission(123) // budget irrelevant
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsRowStochastic(1e-12) {
		t.Fatal("not stochastic")
	}
	if e.At(0, 3) != 0.25 {
		t.Fatalf("entry = %v", e.At(0, 3))
	}
	if err := u.Begin(0); err != nil {
		t.Fatal(err)
	}
	if err := u.Observe(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewUniform(0); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestIdentity(t *testing.T) {
	id, err := NewIdentity(3)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := id.Emission(1)
	if e.At(0, 0) != 1 || e.At(0, 1) != 0 {
		t.Fatal("not identity")
	}
	if _, err := NewIdentity(-1); err == nil {
		t.Error("m<0 accepted")
	}
}

func TestSampleRow(t *testing.T) {
	e := mat.FromRows([][]float64{{0.5, 0.5}, {0, 1}})
	rng := rand.New(rand.NewSource(1))
	if _, err := SampleRow(rng, e, 5); err == nil {
		t.Error("out-of-range state accepted")
	}
	for i := 0; i < 50; i++ {
		o, err := SampleRow(rng, e, 1)
		if err != nil {
			t.Fatal(err)
		}
		if o != 1 {
			t.Fatalf("deterministic row sampled %d", o)
		}
	}
	// Empirical frequency for the mixed row.
	var ones int
	const n = 100000
	for i := 0; i < n; i++ {
		o, _ := SampleRow(rng, e, 0)
		ones += o
	}
	if f := float64(ones) / n; math.Abs(f-0.5) > 0.01 {
		t.Fatalf("empirical frequency %v", f)
	}
}

func TestPlanarLaplaceEmission(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	p := NewPlanarLaplace(g)
	e, err := p.Emission(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsRowStochastic(1e-9) {
		t.Fatal("not stochastic")
	}
	// Probability decays with distance.
	if e.At(0, 0) <= e.At(0, 1) || e.At(0, 1) <= e.At(0, 15) {
		t.Fatalf("no distance decay: %v %v %v", e.At(0, 0), e.At(0, 1), e.At(0, 15))
	}
	// Symmetry for symmetric cells.
	if math.Abs(e.At(0, 1)-e.At(0, 4)) > 1e-12 {
		t.Fatalf("horizontal/vertical asymmetry: %v vs %v", e.At(0, 1), e.At(0, 4))
	}
	// Cache: same pointer for the same budget.
	e2, _ := p.Emission(1.0)
	if e2 != e {
		t.Fatal("cache miss for same alpha")
	}
	if _, err := p.Emission(0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := p.Emission(math.NaN()); err == nil {
		t.Error("NaN alpha accepted")
	}
}

// TestPlanarLaplaceGeoInd verifies the 2α-geo-indistinguishability bound of
// the discretised mechanism: for all i,i',j:
// Pr(j|i) ≤ exp(2α·d(i,i'))·Pr(j|i').
func TestPlanarLaplaceGeoInd(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	p := NewPlanarLaplace(g)
	for _, alpha := range []float64{0.2, 1, 3} {
		e, _ := p.Emission(alpha)
		lvl := 2 * alpha
		m := g.States()
		for i := 0; i < m; i++ {
			for i2 := 0; i2 < m; i2++ {
				bound := math.Exp(lvl * g.Dist(i, i2))
				for j := 0; j < m; j++ {
					if e.At(i, j) > bound*e.At(i2, j)*(1+1e-9) {
						t.Fatalf("alpha=%v: Pr(%d|%d)=%v > e^{%v·d}·Pr(%d|%d)=%v",
							alpha, j, i, e.At(i, j), lvl, j, i2, bound*e.At(i2, j))
					}
				}
			}
		}
	}
}

// Larger budgets concentrate more mass on the true cell.
func TestPlanarLaplaceBudgetMonotonicity(t *testing.T) {
	g := grid.MustNew(5, 5, 1)
	p := NewPlanarLaplace(g)
	prev := 0.0
	for _, alpha := range []float64{0.1, 0.5, 1, 2, 5} {
		e, _ := p.Emission(alpha)
		self := e.At(12, 12)
		if self <= prev {
			t.Fatalf("self-probability not increasing at alpha=%v: %v <= %v", alpha, self, prev)
		}
		prev = self
	}
}

func newDLSChain(t *testing.T, g *grid.Grid) *markov.Chain {
	t.Helper()
	c, err := markov.GaussianChain(g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeltaLocationSetValidation(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	c := newDLSChain(t, g)
	pi := markov.Uniform(9)
	if _, err := NewDeltaLocationSet(g, c, pi, -0.1); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := NewDeltaLocationSet(g, c, pi, 1); err == nil {
		t.Error("delta=1 accepted")
	}
	if _, err := NewDeltaLocationSet(g, c, markov.Uniform(4), 0.1); err == nil {
		t.Error("pi mismatch accepted")
	}
	if _, err := NewDeltaLocationSet(g, c, mat.Vector{1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.1); err == nil {
		t.Error("non-distribution pi accepted")
	}
	g2 := grid.MustNew(2, 2, 1)
	if _, err := NewDeltaLocationSet(g2, c, markov.Uniform(4), 0.1); err == nil {
		t.Error("chain/grid mismatch accepted")
	}
}

func TestDeltaLocationSetLifecycle(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	c := newDLSChain(t, g)
	d, err := NewDeltaLocationSet(g, c, markov.Uniform(9), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Emission(1); err == nil {
		t.Error("Emission before Begin accepted")
	}
	if err := d.Begin(1); err == nil {
		t.Error("out-of-order Begin accepted")
	}
	if err := d.Begin(0); err != nil {
		t.Fatal(err)
	}
	// With uniform prior and delta=0.2, the set holds ~80% of states.
	if n := len(d.set); n < 7 || n > 9 {
		t.Fatalf("set size %d", n)
	}
	e, err := d.Emission(1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsRowStochastic(1e-9) {
		t.Fatal("emission not stochastic")
	}
	// Out-of-set columns must be zero.
	in := make(map[int]bool)
	for _, s := range d.set {
		in[s] = true
	}
	for j := 0; j < 9; j++ {
		if !in[j] && e.At(0, j) != 0 {
			t.Fatalf("out-of-set column %d has mass %v", j, e.At(0, j))
		}
	}
	if err := d.Observe(1, 0, nil); err == nil {
		t.Error("Observe with wrong timestamp accepted")
	}
	if err := d.Observe(0, 99, nil); err == nil {
		t.Error("out-of-range observation accepted")
	}
	obs := d.set[0]
	if err := d.Observe(0, obs, nil); err != nil {
		t.Fatal(err)
	}
	post := d.Posterior()
	if !post.IsDistribution(1e-9) {
		t.Fatalf("posterior not a distribution: %v", post)
	}
	// Posterior concentrates near the observation.
	if post.ArgMax() != obs {
		t.Fatalf("posterior mode %d, observed %d", post.ArgMax(), obs)
	}
	if err := d.Begin(1); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaLocationSetShrinksWithDelta(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	c := newDLSChain(t, g)
	sizes := make([]int, 0, 3)
	for _, delta := range []float64{0.0, 0.3, 0.7} {
		d, err := NewDeltaLocationSet(g, c, markov.Uniform(16), delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Begin(0); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(d.set))
	}
	if !(sizes[0] >= sizes[1] && sizes[1] >= sizes[2]) {
		t.Fatalf("set sizes not decreasing with delta: %v", sizes)
	}
	if sizes[0] != 16 {
		t.Fatalf("delta=0 should keep all states, got %d", sizes[0])
	}
}

// Property: the δ-location set always captures ≥ 1−δ of the prior mass and
// is minimal (dropping its least-probable member would fall below 1−δ).
func TestDeltaLocationSetMinimalCoverProperty(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	c := newDLSChain(t, g)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := rng.Float64() * 0.9
		pi := mat.NewVector(9)
		for i := range pi {
			pi[i] = rng.ExpFloat64()
		}
		pi.Normalize()
		d, err := NewDeltaLocationSet(g, c, pi, delta)
		if err != nil {
			return false
		}
		if err := d.Begin(0); err != nil {
			return false
		}
		var mass, minMass float64
		minMass = math.Inf(1)
		for _, s := range d.set {
			mass += pi[s]
			if pi[s] < minMass {
				minMass = pi[s]
			}
		}
		if mass < 1-delta-1e-9 {
			return false
		}
		// Minimality: removing the smallest member must undershoot.
		return mass-minMass < 1-delta+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaLocationSetSurrogate: with a tiny set, a far-away true location
// must still produce a valid emission row concentrated inside the set.
func TestDeltaLocationSetSurrogate(t *testing.T) {
	g := grid.MustNew(5, 1, 1) // 1-D map for clarity
	// Strong drift to state 0.
	tr := mat.NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		tr.Set(i, 0, 1)
	}
	c := markov.MustNewChain(tr)
	pi := mat.Vector{0.96, 0.01, 0.01, 0.01, 0.01}
	d, err := NewDeltaLocationSet(g, c, pi, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin(0); err != nil {
		t.Fatal(err)
	}
	if len(d.set) != 1 || d.set[0] != 0 {
		t.Fatalf("set = %v", d.set)
	}
	e, err := d.Emission(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every row, including far state 4, must emit state 0 with prob 1.
	for i := 0; i < 5; i++ {
		if e.At(i, 0) != 1 {
			t.Fatalf("row %d = %v", i, e.Row(i))
		}
	}
}

// TestDeltaLocationSetImpossibleObservation: observing outside the set
// falls back to the prior instead of corrupting the filter.
func TestDeltaLocationSetImpossibleObservation(t *testing.T) {
	g := grid.MustNew(5, 1, 1)
	tr := mat.NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		tr.Set(i, 0, 1)
	}
	c := markov.MustNewChain(tr)
	pi := mat.Vector{0.96, 0.01, 0.01, 0.01, 0.01}
	d, _ := NewDeltaLocationSet(g, c, pi, 0.3)
	_ = d.Begin(0)
	if _, err := d.Emission(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Observe(0, 4, nil); err != nil { // state 4 has zero emission mass
		t.Fatal(err)
	}
	if !d.Posterior().IsDistribution(1e-9) {
		t.Fatal("posterior corrupted")
	}
}

func TestDeltaLocationSetEmissionCache(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	c := newDLSChain(t, g)
	d, _ := NewDeltaLocationSet(g, c, markov.Uniform(9), 0.2)
	_ = d.Begin(0)
	e1, _ := d.Emission(1)
	e2, _ := d.Emission(1)
	if e1 != e2 {
		t.Error("cache miss for same alpha within a timestamp")
	}
	e3, _ := d.Emission(0.5)
	if e3 == e1 {
		t.Error("different alpha returned cached matrix")
	}
}
