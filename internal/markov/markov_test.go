package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priste/internal/grid"
	"priste/internal/mat"
)

// paperM is the transition matrix of Example III.1 (Eq. 2).
func paperM() *mat.Matrix {
	return mat.FromRows([][]float64{
		{0.1, 0.2, 0.7},
		{0.4, 0.1, 0.5},
		{0, 0.1, 0.9},
	})
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(mat.NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square")
	}
	if _, err := NewChain(mat.NewMatrix(0, 0)); err == nil {
		t.Error("expected error for empty")
	}
	bad := mat.FromRows([][]float64{{0.5, 0.4}, {0.5, 0.5}})
	if _, err := NewChain(bad); err == nil {
		t.Error("expected error for row sum != 1")
	}
	neg := mat.FromRows([][]float64{{1.5, -0.5}, {0.5, 0.5}})
	if _, err := NewChain(neg); err == nil {
		t.Error("expected error for negative entry")
	}
	if _, err := NewChain(paperM()); err != nil {
		t.Errorf("paper matrix rejected: %v", err)
	}
}

func TestChainClonesInput(t *testing.T) {
	m := paperM()
	c := MustNewChain(m)
	m.Set(0, 0, 99)
	if c.Prob(0, 0) != 0.1 {
		t.Fatal("chain shares storage with caller matrix")
	}
}

func TestStepMatchesPaperExample(t *testing.T) {
	// p2 = pi·M with pi uniform over the Example III.1 chain.
	c := MustNewChain(paperM())
	pi := Uniform(3)
	p2 := c.Step(pi)
	want := mat.Vector{(0.1 + 0.4 + 0) / 3, (0.2 + 0.1 + 0.1) / 3, (0.7 + 0.5 + 0.9) / 3}
	if !p2.EqualApprox(want, 1e-12) {
		t.Fatalf("p2 = %v want %v", p2, want)
	}
	if math.Abs(p2.Sum()-1) > 1e-12 {
		t.Fatalf("step does not preserve mass: %v", p2.Sum())
	}
}

func TestSamplePathRespectsSupport(t *testing.T) {
	// Deterministic cycle 0->1->2->0.
	c := MustNewChain(mat.FromRows([][]float64{
		{0, 1, 0}, {0, 0, 1}, {1, 0, 0},
	}))
	rng := rand.New(rand.NewSource(1))
	path := c.SamplePath(rng, Delta(3, 0), 9)
	for i, s := range path {
		if s != i%3 {
			t.Fatalf("path[%d] = %d, want %d", i, s, i%3)
		}
	}
	if c.SamplePath(rng, Delta(3, 0), 0) != nil {
		t.Error("zero-length path should be nil")
	}
}

func TestSampleDistributionConverges(t *testing.T) {
	c := MustNewChain(paperM())
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	counts := make([]float64, 3)
	for i := 0; i < n; i++ {
		counts[c.Sample(rng, 0)]++
	}
	for j := 0; j < 3; j++ {
		got := counts[j] / n
		if math.Abs(got-c.Prob(0, j)) > 0.01 {
			t.Fatalf("empirical Pr(0->%d) = %v want %v", j, got, c.Prob(0, j))
		}
	}
}

func TestDeltaPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Delta(3, 3)
}

func TestTrainRecoversDeterministicChain(t *testing.T) {
	trajs := [][]int{{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}}
	c, err := Train(trajs, TrainOptions{States: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Prob(0, 1) != 1 || c.Prob(1, 2) != 1 || c.Prob(2, 0) != 1 {
		t.Fatalf("trained matrix wrong:\n%v", c.Matrix())
	}
}

func TestTrainSmoothing(t *testing.T) {
	c, err := Train([][]int{{0, 1}}, TrainOptions{States: 3, Smoothing: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: counts [0,1,0] + 1 smoothing each => [1,2,1]/4.
	if math.Abs(c.Prob(0, 1)-0.5) > 1e-12 {
		t.Fatalf("Prob(0,1) = %v", c.Prob(0, 1))
	}
	// Unvisited rows become uniform under smoothing.
	if math.Abs(c.Prob(2, 0)-1.0/3) > 1e-12 {
		t.Fatalf("Prob(2,0) = %v", c.Prob(2, 0))
	}
}

func TestTrainUnvisitedSelfLoop(t *testing.T) {
	c, err := Train([][]int{{0, 1, 0}}, TrainOptions{States: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Prob(2, 2) != 1 {
		t.Fatalf("unvisited state should self-loop, got row %v", c.Matrix().Row(2))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, TrainOptions{States: 0}); err == nil {
		t.Error("expected error for zero states")
	}
	if _, err := Train(nil, TrainOptions{States: 3}); err == nil {
		t.Error("expected error for no data, no smoothing")
	}
	if _, err := Train([][]int{{0, 5}}, TrainOptions{States: 3}); err == nil {
		t.Error("expected error for out-of-range state")
	}
	if _, err := Train([][]int{{0, 1}}, TrainOptions{States: 3, Smoothing: -1}); err == nil {
		t.Error("expected error for negative smoothing")
	}
}

func TestTrainProperty(t *testing.T) {
	// Training on paths sampled from a known chain approaches that chain.
	src := MustNewChain(paperM())
	rng := rand.New(rand.NewSource(3))
	var trajs [][]int
	for i := 0; i < 50; i++ {
		trajs = append(trajs, src.SamplePath(rng, Uniform(3), 500))
	}
	got, err := Train(trajs, TrainOptions{States: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matrix().EqualApprox(src.Matrix(), 0.02) {
		t.Fatalf("trained chain far from source:\n%v\nvs\n%v", got.Matrix(), src.Matrix())
	}
}

func TestEmpiricalInitial(t *testing.T) {
	p, err := EmpiricalInitial([][]int{{0}, {0}, {2}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.EqualApprox(mat.Vector{2.0 / 3, 0, 1.0 / 3}, 1e-12) {
		t.Fatalf("initial = %v", p)
	}
	if _, err := EmpiricalInitial(nil, 3, 0); err == nil {
		t.Error("expected error for no data")
	}
	if _, err := EmpiricalInitial([][]int{{9}}, 3, 0); err == nil {
		t.Error("expected error for out-of-range")
	}
}

func TestGaussianChainStochasticAndLocal(t *testing.T) {
	g := grid.MustNew(5, 5, 1)
	c, err := GaussianChain(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Matrix().IsRowStochastic(1e-9) {
		t.Fatal("not stochastic")
	}
	// With small sigma, self-transition dominates any far cell.
	center := g.State(2, 2)
	far := g.State(4, 4)
	if c.Prob(center, center) <= c.Prob(center, far) {
		t.Fatalf("locality violated: self %v far %v", c.Prob(center, center), c.Prob(center, far))
	}
}

func TestGaussianChainSigmaOrdersPatternStrength(t *testing.T) {
	g := grid.MustNew(6, 6, 1)
	small, _ := GaussianChain(g, 0.1)
	large, _ := GaussianChain(g, 10)
	if small.PatternStrength() <= large.PatternStrength() {
		t.Fatalf("sigma=0.1 strength %v should exceed sigma=10 strength %v",
			small.PatternStrength(), large.PatternStrength())
	}
	ut := mat.NewMatrix(36, 36)
	for i := 0; i < 36; i++ {
		copy(ut.Row(i), Uniform(36))
	}
	u := MustNewChain(ut)
	if math.Abs(u.PatternStrength()-1.0/36) > 1e-12 {
		t.Fatalf("uniform strength = %v", u.PatternStrength())
	}
}

func TestGaussianChainValidation(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := GaussianChain(g, sigma); err == nil {
			t.Errorf("sigma=%v accepted", sigma)
		}
	}
}

func TestLazyRandomWalk(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	c, err := LazyRandomWalk(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Matrix().IsRowStochastic(1e-12) {
		t.Fatal("not stochastic")
	}
	// Corner cell has 2 neighbours.
	if math.Abs(c.Prob(0, 1)-0.25) > 1e-12 {
		t.Fatalf("corner neighbour prob = %v", c.Prob(0, 1))
	}
	if _, err := LazyRandomWalk(g, 1.5); err == nil {
		t.Error("expected error for stay > 1")
	}
}

// Property: any valid chain preserves total probability mass under Step.
func TestStepPreservesMassProperty(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sigma := 0.1 + rng.Float64()*5
		c, err := GaussianChain(g, sigma)
		if err != nil {
			return false
		}
		p := mat.NewVector(16)
		for i := range p {
			p[i] = rng.Float64()
		}
		p.Normalize()
		q := c.Step(p)
		return math.Abs(q.Sum()-1) < 1e-9 && q.Min() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
