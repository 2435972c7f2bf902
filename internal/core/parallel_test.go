package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/par"
	"priste/internal/world"
)

// stepRecord is one step's released outputs — everything a client of the
// service can observe about a step.
type stepRecord struct {
	obs      int
	alpha    float64
	attempts int
	uniform  bool
	fp       uint64
}

// randomScenario builds a seeded random plan: random grid geometry,
// random mobility chain family and locality, random event window, random
// privacy budget. The returned plan uses the given kernel mode; the
// location sequence is derived from the same seed. The chain reaches the
// plan in a Varying, which carries no Kronecker factors, so auto's
// products are the row and CSR paths — bit-identical to the
// oracle — never the factored one.
func randomScenario(t *testing.T, seed int64, mode world.KernelMode) (*Plan, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := 4 + rng.Intn(4) // 4..7
	h := 4 + rng.Intn(4)
	g := grid.MustNew(w, h, 1)
	m := g.States()

	var chain *markov.Chain
	var err error
	if rng.Intn(2) == 0 {
		chain, err = markov.LazyRandomWalk(g, 0.2+0.6*rng.Float64())
	} else {
		chain, err = markov.GaussianChain(g, 0.5+1.5*rng.Float64())
	}
	if err != nil {
		t.Fatal(err)
	}

	lo := rng.Intn(m - 1)
	hi := lo + 1 + rng.Intn(m-lo-1)
	region, err := grid.RegionRange(m, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	start := 1 + rng.Intn(3)
	ev := event.MustNewPresence(region, start, start+1+rng.Intn(4))

	cfg := DefaultConfig(0.3+0.7*rng.Float64(), 1.0)
	cfg.QPTimeout = 0 // deterministic verdicts
	cfg.Kernel = mode
	tp, err := world.NewVarying([]*mat.Matrix{chain.Matrix()})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(SharedMechanism(lppm.NewPlanarLaplace(g)), tp, []event.Event{ev}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	horizon := 8 + rng.Intn(10)
	locs := make([]int, horizon)
	for i := range locs {
		locs[i] = rng.Intn(m)
	}
	return plan, locs
}

// runTrajectory steps a fresh session through locs, recording every
// released output and the fingerprint after each step. When snapAt >= 0
// it also snapshots mid-trajectory, restores the snapshot into snapInto,
// and verifies the restored session finishes the trajectory with
// bit-identical releases.
func runTrajectory(t *testing.T, plan *Plan, seed int64, locs []int, snapAt int, snapInto *Plan) []stepRecord {
	t.Helper()
	f, err := plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	var restored *Framework
	recs := make([]stepRecord, 0, len(locs))
	for k, loc := range locs {
		if k == snapAt && snapInto != nil {
			snap, err := f.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err = snapInto.Restore(snap, NewSessionRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if restored.Fingerprint() != f.Fingerprint() {
				t.Fatalf("restore at step %d: fingerprint %#x, want %#x", k, restored.Fingerprint(), f.Fingerprint())
			}
		}
		r, err := f.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, stepRecord{r.Obs, r.Alpha, r.Attempts, r.Uniform, f.Fingerprint()})
		if restored != nil {
			rr, err := restored.Step(loc)
			if err != nil {
				t.Fatalf("restored session step %d: %v", k, err)
			}
			if rr.Obs != r.Obs || rr.Alpha != r.Alpha || rr.Attempts != r.Attempts || rr.Uniform != r.Uniform ||
				restored.Fingerprint() != f.Fingerprint() {
				t.Fatalf("restored session diverged at step %d", k)
			}
		}
	}
	return recs
}

// TestParallelReleaseEquivalence is the determinism acceptance check for
// the worker pool: over seeded random scenarios (random grid, chain
// family, event window, budget, horizon), the full released trajectory —
// observations, budgets, attempt counts, fingerprints — must be
// bit-identical at every pool width, including widths that do not divide
// the tile count, and identical to the naive oracle kernels. The flops
// cutoff is forced to 1 so even these small worlds actually dispatch
// through the pool, and a mid-trajectory snapshot/restore into the
// oracle plan must land on the same fingerprint and continuation.
func TestParallelReleaseEquivalence(t *testing.T) {
	pool := par.Default()
	defer pool.SetParallelism(0)
	defer pool.SetCutoffOverride(0)

	widths := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, seed := range []int64{1, 17, 202} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Baseline: oracle kernels, serial dispatch.
			pool.SetCutoffOverride(0)
			pool.SetParallelism(1)
			oracle, locs := randomScenario(t, seed, world.KernelOracle)
			want := runTrajectory(t, oracle, seed, locs, -1, nil)

			// Candidates: auto's kernels through the pool at every
			// width, with parallel dispatch forced.
			pool.SetCutoffOverride(1)
			for _, w := range widths {
				pool.SetParallelism(w)
				plan, _ := randomScenario(t, seed, world.KernelAuto)
				got := runTrajectory(t, plan, seed, locs, len(locs)/2, oracle)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("width=%d step %d diverged:\n  got  %+v\n  want %+v", w, k, got[k], want[k])
					}
				}
			}

			// The pool must actually have fanned kernels out.
			if st := pool.Stats(); st.ParallelDispatch == 0 {
				t.Fatal("no parallel dispatches recorded — the test exercised only serial paths")
			}
		})
	}
}
