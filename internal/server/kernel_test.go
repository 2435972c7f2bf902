package server

import (
	"context"
	"slices"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/eventspec"
	"priste/internal/lppm"
	"priste/internal/world"
)

// sparseCutoff keeps, on testConfig's 6×6 map, only the transitions to
// the 3×3 neighbourhood (exp(−d²/2) ≥ 0.2 iff d² ≤ 2): density 0.20,
// at most the 0.25 at which auto compiles a chain to CSR.
const sparseCutoff = 0.2

// sparseTestConfig is testConfig over that sparsified mobility chain.
func sparseTestConfig() Config {
	cfg := testConfig()
	cfg.SparseCutoff = sparseCutoff
	return cfg
}

// TestServerKernelEquivalence: a server's seeded releases equal, tag for
// tag, those of a bare plan on world.KernelOracle over the same chain —
// the check the benchmark's verify phase makes — on the default world,
// whose commits run over the chain's Kronecker factors, and on a
// sparsified one, whose kernels are CSR.
func TestServerKernelEquivalence(t *testing.T) {
	const steps = 10
	for _, tc := range []struct {
		name string
		cfg  Config
		took func(api.PlanStats) bool
	}{
		{"default", testConfig(), func(p api.PlanStats) bool { return p.FactoredKernels > 0 }},
		{"cutoff", sparseTestConfig(), func(p api.PlanStats) bool { return p.SparseKernels > 0 && p.DenseKernels == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, tc.cfg)
			m := srv.g.States()
			events, err := eventspec.ParseAll(tc.cfg.Events, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			coreCfg := core.DefaultConfig(tc.cfg.Epsilon, tc.cfg.Alpha)
			coreCfg.QPTimeout = tc.cfg.QPTimeout
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
			if p := srv.Stats().Plans; !tc.took(p) {
				t.Fatalf("plans %+v: not the path this world selects", p)
			}
		})
	}
}

// TestStatszCountsFactoredProducts: on the default world (the exact
// Gaussian chain under auto) every commit product runs over the chain's
// Kronecker factors, and /statsz counts them there — not as blocked or
// banded products.
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
	if p.FactoredKernels == 0 || p.BlockedKernels+p.BandedKernels != 0 {
		t.Fatalf("plans %+v: want factored products only", p)
	}
}

// TestRestartEquivalenceSparsePath is TestRestartEquivalence on the
// sparse kernels: a sparsified world, which its cutoff puts on CSR
// kernels, shut down and rehydrated, must continue seed-for-seed
// identically to an uninterrupted run. Durable replay and the sparse hot
// path compose.
func TestRestartEquivalenceSparsePath(t *testing.T) {
	const pre, post = 6, 6
	sparse := func(cfg Config) Config {
		cfg.SparseCutoff = sparseCutoff
		return cfg
	}

	ref := newTestServer(t, sparse(testConfig()))
	for _, u := range restartUsers {
		createRestartUser(t, ref, u)
	}
	if p := ref.Stats().Plans; p.SparseKernels == 0 || p.DenseKernels != 0 {
		t.Fatalf("plans %+v: the cutoff world did not compile to CSR", p)
	}
	want := stepAll(t, ref, 0, pre)
	for id, more := range stepAll(t, ref, pre, pre+post) {
		want[id] = append(want[id], more...)
	}

	dir := t.TempDir()
	srvA, err := New(sparse(durableConfig(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range restartUsers {
		createRestartUser(t, srvA, u)
	}
	gotPre := stepAll(t, srvA, 0, pre)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	srvB := newTestServer(t, sparse(durableConfig(t, dir)))
	if st := srvB.Stats(); st.Store.Replayed != int64(len(restartUsers)) || st.Store.ReplayFailures != 0 {
		t.Fatalf("replayed = %d (failures %d)", st.Store.Replayed, st.Store.ReplayFailures)
	}
	gotPost := stepAll(t, srvB, pre, pre+post)
	for _, u := range restartUsers {
		sameSteps(t, u.id+" (pre)", gotPre[u.id], want[u.id][:pre])
		sameSteps(t, u.id+" (post-restart)", gotPost[u.id], want[u.id][pre:])
	}
}

// TestSparseCutoffScopesWorldTag: a journal written under one cutoff
// must not replay into a server running another — the sparsified chain
// is a different world model.
func TestSparseCutoffScopesWorldTag(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(sparseTestConfig().withStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(4)
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Step(bg, "u", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Same store, no cutoff: the exact Gaussian world must refuse it.
	srvB := newTestServer(t, durableConfig(t, dir))
	if st := srvB.Stats(); st.Store.Replayed != 0 || st.Store.ReplayFailures != 1 {
		t.Fatalf("cross-cutoff replay: %+v, want 0 replayed / 1 failure", st.Store)
	}
}

func TestKernelConfigValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.SparseCutoff = 1 },
		func(c *Config) { c.SparseCutoff = -0.1 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// withStore attaches a fresh file store in dir to the config.
func (c Config) withStore(t *testing.T, dir string) Config {
	t.Helper()
	d := durableConfig(t, dir)
	c.Store = d.Store
	c.SnapshotEvery = d.SnapshotEvery
	return c
}
