package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/world"
)

// testSetup builds a small 3×3 world with a Gaussian chain and a PRESENCE
// event over the left column during t=2..3.
type testSetup struct {
	g     *grid.Grid
	chain *markov.Chain
	tp    world.TransitionProvider
	ev    event.Event
}

func setup(t *testing.T) testSetup {
	t.Helper()
	g := grid.MustNew(3, 3, 1)
	chain, err := markov.GaussianChain(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRect(g, 0, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return testSetup{
		g:     g,
		chain: chain,
		tp:    world.NewHomogeneous(chain),
		ev:    event.MustNewPresence(region, 2, 3),
	}
}

func TestConfigValidation(t *testing.T) {
	s := setup(t)
	plm := lppm.NewPlanarLaplace(s.g)
	rng := rand.New(rand.NewSource(1))
	bad := []Config{
		{Epsilon: 0, Alpha: 1, Decay: 0.5},
		{Epsilon: 1, Alpha: 0, Decay: 0.5},
		{Epsilon: 1, Alpha: 1, Decay: 0},
		{Epsilon: 1, Alpha: 1, Decay: 1},
		{Epsilon: math.NaN(), Alpha: 1, Decay: 0.5},
	}
	for _, cfg := range bad {
		if _, err := New(plm, s.tp, []event.Event{s.ev}, cfg, rng); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(plm, s.tp, nil, DefaultConfig(1, 1), rng); err == nil {
		t.Error("no events accepted")
	}
	if _, err := New(plm, s.tp, []event.Event{s.ev}, DefaultConfig(1, 1), nil); err == nil {
		t.Error("nil rng accepted")
	}
	small := lppm.NewPlanarLaplace(grid.MustNew(2, 2, 1))
	if _, err := New(small, s.tp, []event.Event{s.ev}, DefaultConfig(1, 1), rng); err == nil {
		t.Error("state mismatch accepted")
	}
}

func TestStepValidatesLocation(t *testing.T) {
	s := setup(t)
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, DefaultConfig(1, 0.5), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(-1); err == nil {
		t.Error("negative location accepted")
	}
	if _, err := f.Step(9); err == nil {
		t.Error("out-of-range location accepted")
	}
}

// TestRunReleasesEveryTimestamp: the loop must always release something
// (possibly the uniform fallback) and advance time.
func TestRunReleasesEveryTimestamp(t *testing.T) {
	s := setup(t)
	rng := rand.New(rand.NewSource(7))
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, DefaultConfig(0.5, 0.5), rng)
	if err != nil {
		t.Fatal(err)
	}
	traj := s.chain.SamplePath(rng, markov.Uniform(9), 8)
	results, err := f.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("released %d of 8", len(results))
	}
	for i, r := range results {
		if r.T != i {
			t.Errorf("result %d has T=%d", i, r.T)
		}
		if r.Obs < 0 || r.Obs >= 9 {
			t.Errorf("obs %d out of range", r.Obs)
		}
		if r.Attempts < 1 {
			t.Errorf("attempts = %d", r.Attempts)
		}
		if !r.Uniform && (r.Alpha <= 0 || r.Alpha > 0.5) {
			t.Errorf("alpha = %v outside (0, 0.5]", r.Alpha)
		}
	}
	if f.T() != 8 {
		t.Fatalf("T = %d", f.T())
	}
}

// TestReleasedSequenceSatisfiesEpsilon is the paper's core guarantee: the
// realised privacy loss of the released sequence, for any tested initial
// probability, stays within ε (up to solver tolerance).
func TestReleasedSequenceSatisfiesEpsilon(t *testing.T) {
	s := setup(t)
	const eps = 0.8
	rng := rand.New(rand.NewSource(11))
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, DefaultConfig(eps, 1.0), rng)
	if err != nil {
		t.Fatal(err)
	}
	traj := s.chain.SamplePath(rng, markov.Uniform(9), 6)
	if _, err := f.Run(traj); err != nil {
		t.Fatal(err)
	}
	// Probe a spread of initial probabilities, including skewed ones.
	pis := []mat.Vector{markov.Uniform(9)}
	for k := 0; k < 20; k++ {
		pi := mat.NewVector(9)
		for i := range pi {
			pi[i] = rng.ExpFloat64()
		}
		pi.Normalize()
		pis = append(pis, pi)
	}
	for _, pi := range pis {
		loss, err := f.RealizedLoss(0, pi)
		if err != nil {
			// Degenerate priors (0 or 1) are excluded by the metric.
			continue
		}
		if loss > eps+1e-6 {
			t.Fatalf("realized loss %v exceeds epsilon %v for pi=%v", loss, eps, pi)
		}
	}
}

// TestStricterEpsilonReducesBudget reproduces the paper's headline
// observation: a smaller ε forces more budget calibration.
func TestStricterEpsilonReducesBudget(t *testing.T) {
	s := setup(t)
	avgAlpha := func(eps float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, DefaultConfig(eps, 1.0), rng)
		if err != nil {
			t.Fatal(err)
		}
		traj := s.chain.SamplePath(rng, markov.Uniform(9), 6)
		results, err := f.Run(traj)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range results {
			sum += r.Alpha
		}
		return sum / float64(len(results))
	}
	var tight, loose float64
	const runs = 10
	for seed := int64(0); seed < runs; seed++ {
		tight += avgAlpha(0.1, seed)
		loose += avgAlpha(2.0, seed)
	}
	if tight >= loose {
		t.Fatalf("avg budget under eps=0.1 (%v) should be below eps=2 (%v)", tight/runs, loose/runs)
	}
}

// TestUniformFallbackFires: with an extremely tight ε and only one attempt
// allowed, the framework must fall back to the uniform release rather than
// fail.
func TestUniformFallbackFires(t *testing.T) {
	s := setup(t)
	cfg := Config{
		Epsilon:     1e-6,
		Alpha:       5,
		Decay:       0.5,
		MaxAttempts: 2,
		MinAlpha:    4, // force immediate underflow after one decay
	}
	rng := rand.New(rand.NewSource(3))
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	sawUniform := false
	for _, u := range []int{4, 4, 0, 1} {
		r, err := f.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		if r.Uniform {
			sawUniform = true
			if r.Alpha != 0 {
				t.Fatalf("uniform release with alpha %v", r.Alpha)
			}
		}
	}
	if !sawUniform {
		t.Fatal("expected at least one uniform fallback under eps=1e-6")
	}
}

// TestUniformFallbackPreservesEpsilon: even a trajectory released entirely
// by the fallback keeps the realised loss at ~0.
func TestUniformFallbackPreservesEpsilon(t *testing.T) {
	s := setup(t)
	cfg := Config{Epsilon: 1e-9, Alpha: 1, Decay: 0.5, MaxAttempts: 1, MinAlpha: 10}
	rng := rand.New(rand.NewSource(5))
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 1, 2, 4, 8} {
		r, err := f.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Uniform {
			t.Fatal("expected all-uniform releases")
		}
	}
	loss, err := f.RealizedLoss(0, markov.Uniform(9))
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-9 {
		t.Fatalf("loss = %v after uniform-only releases", loss)
	}
}

// TestMultiEventCostsMoreBudget reproduces Fig. 9: protecting two events
// simultaneously requires at least as much calibration as protecting one.
func TestMultiEventCostsMoreBudget(t *testing.T) {
	s := setup(t)
	region2, err := grid.RegionRect(s.g, 2, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := event.MustNewPresence(region2, 4, 5)
	run := func(events []event.Event, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, events, DefaultConfig(0.3, 1.0), rng)
		if err != nil {
			t.Fatal(err)
		}
		traj := s.chain.SamplePath(rng, markov.Uniform(9), 7)
		results, err := f.Run(traj)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range results {
			sum += r.Alpha
		}
		return sum
	}
	var one, two float64
	for seed := int64(0); seed < 8; seed++ {
		one += run([]event.Event{s.ev}, seed)
		two += run([]event.Event{s.ev, ev2}, seed)
	}
	if two > one*1.05 {
		t.Fatalf("two events used more budget (%v) than one (%v)", two, one)
	}
}

// TestDeltaLocationSetFramework runs Algorithm 3 end to end.
func TestDeltaLocationSetFramework(t *testing.T) {
	s := setup(t)
	mech, err := lppm.NewDeltaLocationSet(s.g, s.chain, markov.Uniform(9), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	f, err := New(mech, s.tp, []event.Event{s.ev}, DefaultConfig(0.5, 1.0), rng)
	if err != nil {
		t.Fatal(err)
	}
	traj := s.chain.SamplePath(rng, markov.Uniform(9), 6)
	results, err := f.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("released %d", len(results))
	}
	if !mech.Posterior().IsDistribution(1e-9) {
		t.Fatal("posterior corrupted after run")
	}
	// Realised loss still bounded.
	loss, err := f.RealizedLoss(0, markov.Uniform(9))
	if err == nil && loss > 0.5+1e-6 {
		t.Fatalf("loss %v exceeds epsilon", loss)
	}
}

// TestConservativeRelease: a vanishing QP deadline forces Unknown verdicts,
// which must be counted and must push the release toward the fallback, not
// break it.
func TestConservativeRelease(t *testing.T) {
	s := setup(t)
	cfg := DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = time.Nanosecond
	cfg.MaxAttempts = 3
	rng := rand.New(rand.NewSource(13))
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Step(4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Uniform {
		// With a 1ns deadline the solver cannot certify anything beyond
		// its seed evaluations; violations can still be found, so in rare
		// cases an instant Violated verdict avoids conservative counting.
		if r.ConservativeRejections == 0 {
			t.Fatalf("expected conservative rejections or fallback, got %+v", r)
		}
	}
}

// TestRealizedLossValidation covers the index guard.
func TestRealizedLossValidation(t *testing.T) {
	s := setup(t)
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, DefaultConfig(1, 1), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RealizedLoss(1, markov.Uniform(9)); err == nil {
		t.Error("out-of-range event index accepted")
	}
}

// TestCheckAgainstDirectQP: a framework-released step must agree with an
// independent CheckRelease on the committed columns.
func TestCheckAgainstDirectQP(t *testing.T) {
	s := setup(t)
	rng := rand.New(rand.NewSource(21))
	f, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, DefaultConfig(0.5, 0.8), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(4); err != nil {
		t.Fatal(err)
	}
	if err := f.materialise(nil); err != nil {
		t.Fatal(err)
	}
	chk := f.quants[0].Current()
	chk.Epsilon = 0.5
	dec, err := qp.CheckRelease(chk, qp.ReleaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.OK {
		t.Fatalf("committed release fails independent re-check: %+v %+v", dec.Eq15, dec.Eq16)
	}
}
