package core

import (
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/world"
)

// kernelGrid is the map the kernel tests plan on: 10×10, where each of
// auto's operator paths has an input that selects it.
var kernelGrid = grid.MustNew(10, 10, 1)

// kernelPlan compiles a plan over tp under the given kernel mode.
func kernelPlan(t *testing.T, tp world.TransitionProvider, mode world.KernelMode) *Plan {
	t.Helper()
	region, err := grid.RegionRange(kernelGrid.States(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 2, 4)
	cfg := DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0 // deterministic verdicts
	cfg.Kernel = mode
	plan, err := NewPlan(SharedMechanism(lppm.NewPlanarLaplace(kernelGrid)), tp, []event.Event{ev}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// kernelChains builds the Gaussian chain and a lazy random walk on
// kernelGrid.
func kernelChains(t *testing.T) (gauss, walk *markov.Chain) {
	t.Helper()
	gauss, err := markov.GaussianChain(kernelGrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if walk, err = markov.LazyRandomWalk(kernelGrid, 0.4); err != nil {
		t.Fatal(err)
	}
	return gauss, walk
}

// varying hands the matrices over in a world.Varying, which carries no
// Kronecker factors.
func varying(t *testing.T, ms ...*mat.Matrix) world.TransitionProvider {
	t.Helper()
	v, err := world.NewVarying(ms)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sameReleases steps a session of each plan with the same seed through
// the same locations and requires identical releases — observation,
// budget, attempts, fallback — and fingerprints at every step. It
// returns both sessions.
func sameReleases(t *testing.T, plan, oracle *Plan, seed int64, steps, stride int) (got, want *Framework) {
	t.Helper()
	got, err := plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err = oracle.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	m := plan.States()
	for k := 0; k < steps; k++ {
		loc := (k * stride) % m
		r, err := got.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Obs != ref.Obs || r.Alpha != ref.Alpha || r.Attempts != ref.Attempts || r.Uniform != ref.Uniform {
			t.Fatalf("step %d diverged: %+v vs oracle %+v", k, r, ref)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("step %d: fingerprint %#x vs oracle %#x", k, got.Fingerprint(), want.Fingerprint())
		}
	}
	return got, want
}

// restoresOnto requires a snapshot of f to restore onto plan with f's
// fingerprint: kernels are interchangeable at the persistence boundary.
func restoresOnto(t *testing.T, f *Framework, plan *Plan, seed int64) {
	t.Helper()
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := plan.Restore(snap, NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Fingerprint() != f.Fingerprint() {
		t.Fatalf("cross-kernel restore fingerprint %#x, want %#x", restored.Fingerprint(), f.Fingerprint())
	}
}

// TestDenseSparseReleaseEquivalence is the engine-level acceptance check
// for a world whose kernels alternate between the dense and the sparse
// path from step to step: a time-varying chain that switches between
// the Gaussian matrix and a random walk compiles one dense and one CSR
// kernel under auto, and a session over it must release as the oracle
// does — observation for observation, budget for budget — and end on
// the same history fingerprint. Snapshots cross the persistence
// boundary both ways.
func TestDenseSparseReleaseEquivalence(t *testing.T) {
	const seed, steps = 42, 14
	gauss, walk := kernelChains(t)
	tp := varying(t, gauss.Matrix(), walk.Matrix(), gauss.Matrix(), walk.Matrix())
	auto := kernelPlan(t, tp, world.KernelAuto)
	oracle := kernelPlan(t, tp, world.KernelOracle)
	if ks := auto.KernelStats(); ks.Dense != 1 || ks.Sparse != 1 {
		t.Fatalf("auto plan kernels %+v, want one dense and one sparse", ks)
	}
	fa, fo := sameReleases(t, auto, oracle, seed, steps, 5)
	restoresOnto(t, fa, oracle, seed)
	restoresOnto(t, fo, auto, seed)
}

// TestOracleAdaptiveReleaseEquivalence extends the release-sequence
// oracle to each of auto's operator paths, reached through the input
// that selects it: a session must release as the oracle does over the
// same input — same observations, budgets, attempt counts,
// fingerprints — and its snapshot must restore onto the oracle plan.
// The factored path is held to the oracle within a bound, not bit for
// bit (see world.TestFactoredMatchesOracle); on this input its
// verdicts, and so its releases, are the same.
func TestOracleAdaptiveReleaseEquivalence(t *testing.T) {
	const seed, steps = 7, 14
	gauss, walk := kernelChains(t)
	for _, tc := range []struct {
		path string
		tp   world.TransitionProvider
		took func(world.KernelStats) bool
	}{
		{"factored", world.NewHomogeneous(gauss), func(ks world.KernelStats) bool { return ks.Factored > 0 }},
		{"row", varying(t, gauss.Matrix()), func(ks world.KernelStats) bool { return ks.Blocked > 0 && ks.Factored == 0 }},
		{"csr", world.NewHomogeneous(walk), func(ks world.KernelStats) bool { return ks.Sparse == 1 && ks.Dense == 0 }},
	} {
		t.Run(tc.path, func(t *testing.T) {
			auto := kernelPlan(t, tc.tp, world.KernelAuto)
			oracle := kernelPlan(t, tc.tp, world.KernelOracle)
			fa, _ := sameReleases(t, auto, oracle, seed, steps, 7)
			if ks := auto.KernelStats(); !tc.took(ks) {
				t.Fatalf("auto compiled and dispatched %+v: not the %s path", ks, tc.path)
			}
			restoresOnto(t, fa, oracle, seed)
		})
	}
}
