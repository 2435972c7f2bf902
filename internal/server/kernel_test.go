package server

import (
	"slices"
	"testing"

	"priste/internal/core"
	"priste/internal/eventspec"
	"priste/internal/lppm"
	"priste/internal/world"
)

// TestServerKernelEquivalence: a server's seeded releases equal, tag for
// tag, those of a bare plan on world.KernelOracle over the same chain —
// the check the benchmark's verify phase makes — on the served world,
// whose commits run over the chain's Kronecker factors.
func TestServerKernelEquivalence(t *testing.T) {
	const steps = 10
	t.Run("default", func(t *testing.T) {
		cfg := testConfig()
		srv := newTestServer(t, cfg)
		m := srv.g.States()
		events, err := eventspec.ParseAll(cfg.Events, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		coreCfg := core.DefaultConfig(cfg.Epsilon, cfg.Alpha)
		coreCfg.QPTimeout = cfg.QPTimeout
		coreCfg.Kernel = world.KernelOracle
		oracle, err := core.NewPlan(core.SharedMechanism(lppm.NewPlanarLaplace(srv.g)), srv.tp, events, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		for ui, u := range restartUsers {
			if u.mech != MechanismLaplace {
				continue
			}
			createRestartUser(t, srv, u)
			fw, err := oracle.NewSession(core.NewSessionRNG(u.seed))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < steps; k++ {
				loc := (k*7 + ui*3) % m
				got, err := srv.Step(bg, u.id, loc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fw.Step(loc)
				if err != nil {
					t.Fatal(err)
				}
				if got.Obs != want.Obs || got.Alpha != want.Alpha || got.Attempts != want.Attempts || got.Uniform != want.Uniform {
					t.Fatalf("%s step %d: served %+v, oracle %+v", u.id, k, got, want)
				}
			}
			exp, err := srv.ExportSession(bg, u.id)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(exp.Tags, fw.Tags()) || exp.Fingerprint != fw.Fingerprint() {
				t.Fatalf("%s: served tags %v (fingerprint %#x), oracle %v (%#x)",
					u.id, exp.Tags, exp.Fingerprint, fw.Tags(), fw.Fingerprint())
			}
		}
		if p := srv.Stats().Plans; p.FactoredKernels == 0 {
			t.Fatalf("plans %+v: not the path this world selects", p)
		}
	})
}

// TestStatszCountsFactoredProducts: on the default world (the exact
// Gaussian chain under auto) every commit product runs over the chain's
// Kronecker factors, and /statsz counts them there — not as blocked
// products.
func TestStatszCountsFactoredProducts(t *testing.T) {
	srv := newTestServer(t, testConfig())
	u := restartUsers[0]
	createRestartUser(t, srv, u)
	m := srv.cfg.GridW * srv.cfg.GridH
	for k := 0; k < 8; k++ {
		if _, err := srv.Step(bg, u.id, (k*7)%m); err != nil {
			t.Fatal(err)
		}
	}
	p := srv.Stats().Plans
	if p.FactoredKernels == 0 || p.BlockedKernels != 0 {
		t.Fatalf("plans %+v: want factored products only", p)
	}
}
