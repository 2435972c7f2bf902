package server

import (
	"context"
	"testing"
	"time"

	"priste/internal/api"
)

// sparseTestConfig is testConfig over a sparsified mobility chain: the
// cutoff drops the Gaussian kernel's negligible tails so the transition
// matrix is structurally sparse, and the kernel mode picks the path.
func sparseTestConfig(kernel string) Config {
	cfg := testConfig()
	cfg.SparseCutoff = 1e-3
	cfg.Kernel = kernel
	return cfg
}

// TestServerKernelEquivalence runs the same seeded sessions against a
// forced-dense and a forced-sparse server over the identical (sparsified)
// world and requires identical releases, identical session fingerprints
// and identical serving counters — only the /statsz kernel counters may
// differ, and they must report the path each server actually compiled.
func TestServerKernelEquivalence(t *testing.T) {
	const steps = 10
	servers := map[string]*Server{
		KernelDense:  newTestServer(t, sparseTestConfig(KernelDense)),
		KernelSparse: newTestServer(t, sparseTestConfig(KernelSparse)),
	}
	results := make(map[string]map[string][]StepResponseLite)
	for mode, srv := range servers {
		for _, u := range restartUsers {
			createRestartUser(t, srv, u)
		}
		out := make(map[string][]StepResponseLite)
		m := srv.cfg.GridW * srv.cfg.GridH
		for k := 0; k < steps; k++ {
			for ui, u := range restartUsers {
				res, err := srv.Step(bg, u.id, (k*7+ui*3)%m)
				if err != nil {
					t.Fatalf("%s %s step %d: %v", mode, u.id, k, err)
				}
				out[u.id] = append(out[u.id], StepResponseLite{
					T: res.T, Obs: res.Obs, Alpha: res.Alpha,
					Attempts: res.Attempts, Uniform: res.Uniform,
				})
			}
		}
		results[mode] = out
	}
	for _, u := range restartUsers {
		d, s := results[KernelDense][u.id], results[KernelSparse][u.id]
		for k := range d {
			if d[k] != s[k] {
				t.Fatalf("%s step %d: dense %+v, sparse %+v", u.id, k, d[k], s[k])
			}
		}
		// The quantifier operator state must agree exactly too: the
		// rolling fingerprints are over identical tag sequences, and the
		// sessions sit at the same timestamp.
		sd, _ := servers[KernelDense].mgr.Get(u.id)
		ss, _ := servers[KernelSparse].mgr.Get(u.id)
		if sd.fw.Fingerprint() != ss.fw.Fingerprint() {
			t.Fatalf("%s: fingerprint %#x vs %#x", u.id, sd.fw.Fingerprint(), ss.fw.Fingerprint())
		}
	}

	std := servers[KernelDense].Stats()
	sts := servers[KernelSparse].Stats()
	if std.Steps != sts.Steps {
		t.Fatalf("step counters diverged: dense %+v, sparse %+v", std.Steps, sts.Steps)
	}
	if std.Plans.DenseKernels == 0 || std.Plans.SparseKernels != 0 {
		t.Fatalf("dense server kernels %+v", std.Plans)
	}
	if sts.Plans.SparseKernels == 0 || sts.Plans.DenseKernels != 0 {
		t.Fatalf("sparse server kernels %+v", sts.Plans)
	}
	if sts.Plans.KernelDensity <= 0 || sts.Plans.KernelDensity >= 1 {
		t.Fatalf("sparse kernel density %v", sts.Plans.KernelDensity)
	}
	// A sparsified chain carries no Kronecker factors.
	if std.Plans.FactoredKernels != 0 || sts.Plans.FactoredKernels != 0 {
		t.Fatalf("factored products on a sparsified chain: dense %d, sparse %d",
			std.Plans.FactoredKernels, sts.Plans.FactoredKernels)
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

// StepResponseLite is the comparable subset of a step result.
type StepResponseLite struct {
	T        int
	Obs      int
	Alpha    float64
	Attempts int
	Uniform  bool
}

// TestRestartEquivalenceSparsePath is TestRestartEquivalence on the
// sparse kernels: a sparsified world served with CSR kernels, shut down
// and rehydrated, must continue seed-for-seed identically to an
// uninterrupted run. Durable replay and the sparse hot path compose.
func TestRestartEquivalenceSparsePath(t *testing.T) {
	const pre, post = 6, 6
	sparse := func(cfg Config) Config {
		cfg.SparseCutoff = 1e-3
		cfg.Kernel = KernelSparse
		return cfg
	}

	ref := newTestServer(t, sparse(testConfig()))
	for _, u := range restartUsers {
		createRestartUser(t, ref, u)
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
	srvA, err := New(sparseTestConfig(KernelAuto).withStore(t, dir))
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
		func(c *Config) { c.Kernel = "csr" },
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
