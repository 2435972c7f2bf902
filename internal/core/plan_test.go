package core

import (
	"math/rand"
	"testing"

	"priste/internal/certcache"
	"priste/internal/event"
	"priste/internal/lppm"
	"priste/internal/markov"
)

// planConfig is a deterministic release-loop configuration: no QP
// deadline, so every verdict is decided by the solver rather than the
// clock and cache-on and cache-off runs must agree exactly.
func planConfig(eps, alpha float64) Config {
	return Config{Epsilon: eps, Alpha: alpha, Decay: 0.5}
}

// stripTimings drops the fields the equivalence contract excludes: wall
// time (always differs), conservative-rejection counts (defined only
// under a QP deadline, which deterministic runs disable), and the cert-
// cache hit/miss and operator-rebuild observability counters (by
// construction they differ between cache-on and cache-off runs).
func stripTimings(rs []StepResult) []StepResult {
	out := make([]StepResult, len(rs))
	for i, r := range rs {
		r.CheckTime = 0
		r.ConservativeRejections = 0
		r.CertCacheHits = 0
		r.CertCacheMisses = 0
		r.Rebuilt, r.RebuildTime = 0, 0
		out[i] = r
	}
	return out
}

// runSessions releases one trajectory per seed over a fresh plan, with an
// optionally attached certified-release cache shared by all sessions.
func runSessions(t *testing.T, cfg Config, cache *certcache.Cache, seeds []int64, horizon int) [][]StepResult {
	t.Helper()
	s := setup(t)
	plan, err := NewPlan(SharedMechanism(lppm.NewPlanarLaplace(s.g)), s.tp, []event.Event{s.ev}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache != nil {
		plan.EnableCache(cache)
	}
	out := make([][]StepResult, len(seeds))
	for i, seed := range seeds {
		fw, err := plan.NewSession(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		traj := s.chain.SamplePath(rand.New(rand.NewSource(seed+9000)), markov.Uniform(9), horizon)
		rs, err := fw.Run(traj)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = stripTimings(rs)
	}
	return out
}

func assertSameResults(t *testing.T, name string, a, b [][]StepResult) {
	t.Helper()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: session %d released %d vs %d steps", name, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: session %d step %d differs: %+v vs %+v", name, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestCertCacheEquivalence is the cache-correctness contract: N sessions
// stepping the same seeded trajectories must release identical
// (T, obs, alpha, attempts, uniform) sequences with the certified-release
// cache enabled, disabled, and pre-warmed.
func TestCertCacheEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	configs := map[string]Config{
		"mixed": planConfig(0.5, 1.0),
		// A tight epsilon forces rejections and uniform fallbacks through
		// the cached path too.
		"tight": {Epsilon: 0.05, Alpha: 1.0, Decay: 0.5, MaxAttempts: 6},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			baseline := runSessions(t, cfg, nil, seeds, 6)
			cache := certcache.New(1 << 14)
			cached := runSessions(t, cfg, cache, seeds, 6)
			assertSameResults(t, "cold cache", baseline, cached)
			if st := cache.Stats(); st.Hits == 0 {
				t.Fatalf("cache never hit across %d sibling sessions: %+v", len(seeds), st)
			}
			// Re-running the same seeds over a new plan but the warm cache
			// must still agree (pure-hit path).
			warm := runSessions(t, cfg, cache, seeds, 6)
			assertSameResults(t, "warm cache", baseline, warm)
		})
	}
}

// TestPlanSessionMatchesNew: a session minted from a shared plan must
// behave exactly like the legacy single-shot core.New framework.
func TestPlanSessionMatchesNew(t *testing.T) {
	s := setup(t)
	cfg := planConfig(0.5, 1.0)
	traj := s.chain.SamplePath(rand.New(rand.NewSource(99)), markov.Uniform(9), 6)

	legacy, err := New(lppm.NewPlanarLaplace(s.g), s.tp, []event.Event{s.ev}, cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	legacyRes, err := legacy.Run(traj)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := NewPlan(SharedMechanism(lppm.NewPlanarLaplace(s.g)), s.tp, []event.Event{s.ev}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := plan.NewSession(rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	planRes, err := fw.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "plan vs New", [][]StepResult{stripTimings(legacyRes)}, [][]StepResult{stripTimings(planRes)})
}

// TestPlanSharesMechanismWhenStateless: history-independent mechanisms
// are shared across sessions (one emission table); stateful factories
// must produce fresh instances, and reusing one is rejected.
func TestPlanSharesMechanismWhenStateless(t *testing.T) {
	s := setup(t)
	plm := lppm.NewPlanarLaplace(s.g)
	plan, err := NewPlan(SharedMechanism(plm), s.tp, []event.Event{s.ev}, planConfig(0.5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Stateless() {
		t.Fatal("planar Laplace plan not detected as stateless")
	}
	a, err := plan.NewSession(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.NewSession(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if a.mech != b.mech {
		t.Fatal("stateless sessions should share the mechanism instance")
	}

	// Stateful: fresh instances per session, sharing rejected.
	mkDelta := func() (lppm.Perturber, error) {
		return lppm.NewDeltaLocationSet(s.g, s.chain, markov.Uniform(9), 0.3)
	}
	dplan, err := NewPlan(mkDelta, s.tp, []event.Event{s.ev}, planConfig(0.5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if dplan.Stateless() {
		t.Fatal("delta-location-set plan must not be stateless")
	}
	da, err := dplan.NewSession(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	db, err := dplan.NewSession(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if da.mech == db.mech {
		t.Fatal("stateful sessions must not share the mechanism instance")
	}
	// EnableCache is a no-op for stateful plans.
	dplan.EnableCache(certcache.New(64))
	if dplan.Cache() != nil {
		t.Fatal("cache attached to a stateful plan")
	}

	shared, err := mkDelta()
	if err != nil {
		t.Fatal(err)
	}
	splan, err := NewPlan(SharedMechanism(shared), s.tp, []event.Event{s.ev}, planConfig(0.5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := splan.NewSession(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := splan.NewSession(rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("second session over a shared stateful mechanism accepted")
	}
}

// TestPlanValidation mirrors the legacy constructor checks at plan level.
func TestPlanValidation(t *testing.T) {
	s := setup(t)
	mf := SharedMechanism(lppm.NewPlanarLaplace(s.g))
	if _, err := NewPlan(nil, s.tp, []event.Event{s.ev}, planConfig(1, 1)); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := NewPlan(mf, s.tp, nil, planConfig(1, 1)); err == nil {
		t.Error("no events accepted")
	}
	if _, err := NewPlan(mf, s.tp, []event.Event{s.ev}, Config{}); err == nil {
		t.Error("zero config accepted")
	}
	plan, err := NewPlan(mf, s.tp, []event.Event{s.ev}, planConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.NewSession(nil); err == nil {
		t.Error("nil rng accepted")
	}
	if plan.ID() == 0 {
		t.Error("plan id not assigned")
	}
	if plan.States() != 9 {
		t.Errorf("plan states = %d", plan.States())
	}
}
