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
// clock.
func planConfig(eps, alpha float64) Config {
	return Config{Epsilon: eps, Alpha: alpha, Decay: 0.5}
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
	if !plan.stateless {
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
	if dplan.stateless {
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
	if dplan.cache != nil {
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
	if plan.id == 0 {
		t.Error("plan id not assigned")
	}
	if plan.States() != 9 {
		t.Errorf("plan states = %d", plan.States())
	}
}
