package core

import (
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/world"
)

// kernelPlan compiles a plan over a structurally sparse mobility chain
// (lazy random walk) with the given kernel mode forced.
func kernelPlan(t *testing.T, mode world.KernelMode) *Plan {
	t.Helper()
	g := grid.MustNew(6, 6, 1)
	chain, err := markov.LazyRandomWalk(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRange(g.States(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 2, 4)
	cfg := DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0 // deterministic verdicts
	cfg.Kernel = mode
	plan, err := NewPlan(SharedMechanism(lppm.NewPlanarLaplace(g)), world.NewHomogeneous(chain),
		[]event.Event{ev}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDenseSparseReleaseEquivalence is the engine-level acceptance check
// for the sparse kernels: two sessions with the same seed over
// forced-dense and forced-sparse plans must release identically —
// observation for observation, budget for budget — and end on the same
// history fingerprint. The fingerprint chain is the same oracle the
// durable-session replay verifies, so agreement here carries over to
// restart equivalence on the sparse path.
func TestDenseSparseReleaseEquivalence(t *testing.T) {
	const seed, steps = 42, 14

	dense := kernelPlan(t, world.KernelDense)
	sparse := kernelPlan(t, world.KernelSparse)
	if ks := dense.KernelStats(); ks.Dense != 1 || ks.Sparse != 0 {
		t.Fatalf("dense plan kernels %+v", ks)
	}
	if ks := sparse.KernelStats(); ks.Sparse != 1 || ks.Dense != 0 {
		t.Fatalf("sparse plan kernels %+v", ks)
	}

	fd, err := dense.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sparse.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	m := dense.States()
	for k := 0; k < steps; k++ {
		loc := (k * 5) % m
		rd, err := fd.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := fs.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Obs != rs.Obs || rd.Alpha != rs.Alpha || rd.Attempts != rs.Attempts || rd.Uniform != rs.Uniform {
			t.Fatalf("step %d diverged: dense %+v, sparse %+v", k, rd, rs)
		}
		if fd.Fingerprint() != fs.Fingerprint() {
			t.Fatalf("step %d: fingerprint %#x vs %#x", k, fd.Fingerprint(), fs.Fingerprint())
		}
	}

	// A sparse-path restore from the dense session's snapshot (and vice
	// versa) must reproduce the fingerprint — kernels are
	// interchangeable at the persistence boundary too.
	snap, err := fd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sparse.Restore(snap, NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Fingerprint() != fd.Fingerprint() {
		t.Fatalf("cross-kernel restore fingerprint %#x, want %#x", restored.Fingerprint(), fd.Fingerprint())
	}
}

// TestOracleAdaptiveReleaseEquivalence extends the release-sequence
// oracle to every kernel path: the naive-reference oracle kernels, the
// adaptive dense dispatch (banded/row primitive) and the sparse CSR
// kernels must all release identically to each other — same
// observations, budgets, attempt counts, fingerprints.
func TestOracleAdaptiveReleaseEquivalence(t *testing.T) {
	const seed, steps = 7, 14

	type variant struct {
		name string
		plan *Plan
	}
	variants := []variant{
		{"oracle", kernelPlan(t, world.KernelOracle)},
		{"adaptive", kernelPlan(t, world.KernelDense)},
		{"sparse", kernelPlan(t, world.KernelSparse)},
	}
	sessions := make([]*Framework, len(variants))
	for i, v := range variants {
		f, err := v.plan.NewSession(NewSessionRNG(seed))
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		sessions[i] = f
	}
	m := variants[0].plan.States()
	for k := 0; k < steps; k++ {
		loc := (k * 7) % m
		ref, err := sessions[0].Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(sessions); i++ {
			r, err := sessions[i].Step(loc)
			if err != nil {
				t.Fatalf("%s step %d: %v", variants[i].name, k, err)
			}
			if r.Obs != ref.Obs || r.Alpha != ref.Alpha || r.Attempts != ref.Attempts || r.Uniform != ref.Uniform {
				t.Fatalf("%s step %d diverged: %+v vs oracle %+v", variants[i].name, k, r, ref)
			}
			if sessions[i].Fingerprint() != sessions[0].Fingerprint() {
				t.Fatalf("%s step %d: fingerprint diverged", variants[i].name, k)
			}
		}
	}

	// Adaptive- and sparse-session snapshots restore onto the oracle too.
	for i := 1; i < len(sessions); i++ {
		snap, err := sessions[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := variants[0].plan.Restore(snap, NewSessionRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if restored.Fingerprint() != sessions[i].Fingerprint() {
			t.Fatalf("%s→oracle restore fingerprint mismatch", variants[i].name)
		}
	}
}
