package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"priste/internal/certcache"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/oracle"
	"priste/internal/par"
	"priste/internal/world"
)

// The engine's differential harness. The reference run of a scenario
// (oracle.Scenarios) is the plainest there is: world.KernelOracle, no
// cache, serial kernels, one fresh session per seed. Every view of the
// release loop — auto's operator paths, the cert cache cold, warm and
// partly warmed, the worker pool at any width, snapshot/restore at
// every t, the legacy constructor, the δ mechanism — must reproduce its
// ledger exactly on each scenario it runs. TestVariantsMatchReference
// runs the reference on every scenario and holds it to itself and to
// the effective-mechanism oracle; each Test after it is one variant,
// one call into matchReference.

// scenarioConfig is sc's release loop with no QP deadline, so every
// verdict is a function of the inputs alone.
func scenarioConfig(sc oracle.Scenario, kernel world.KernelMode) Config {
	return Config{Epsilon: sc.Epsilon, Alpha: sc.Alpha, Decay: 0.5, MaxAttempts: sc.MaxAttempts, Kernel: kernel}
}

// scenarioPlan compiles sc under kernel; a nil mf is sc's mechanism.
func scenarioPlan(t testing.TB, sc oracle.Scenario, kernel world.KernelMode, mf MechanismFactory) *Plan {
	t.Helper()
	if mf == nil {
		mf = sc.Mechanism(t)
	}
	p, err := NewPlan(mf, sc.World(t), sc.ParseEvents(t), scenarioConfig(sc, kernel))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func session(t testing.TB, p *Plan, seed int64) *Framework {
	t.Helper()
	f, err := p.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func step(t testing.TB, f *Framework, loc int) StepResult {
	t.Helper()
	r, err := f.Step(loc)
	if err != nil {
		t.Fatalf("step %d: %v", f.T(), err)
	}
	return r
}

// stepOf is a release as the ledger records it.
func stepOf(r StepResult, fp uint64) oracle.Step {
	return oracle.Step{T: r.T, Obs: r.Obs, AlphaBits: math.Float64bits(r.Alpha), Attempts: r.Attempts,
		Conservative: r.ConservativeRejections, Uniform: r.Uniform, Fingerprint: fp}
}

// finish closes l with f's tag log and fingerprint.
func finish(l oracle.Ledger, f *Framework) oracle.Ledger {
	for _, tag := range f.Tags() {
		l.Tags = append(l.Tags, oracle.Tag(tag))
	}
	l.Fingerprint = f.Fingerprint()
	return l
}

// record steps f through locs and returns its ledger. swap, when
// non-nil, replaces the session before each step and once after the
// last.
func record(t testing.TB, f *Framework, locs []int, swap func(k int, f *Framework) *Framework) oracle.Ledger {
	t.Helper()
	var l oracle.Ledger
	for k := 0; ; k++ {
		if swap != nil {
			f = swap(k, f)
		}
		if k == len(locs) {
			return finish(l, f)
		}
		l.Steps = append(l.Steps, stepOf(step(t, f, locs[k]), f.Fingerprint()))
	}
}

// reference is a scenario's reference run: per seed, the ledger, the
// session that released it and, for oracle.Scenario.Small, the ladder
// behind each release.
type reference struct {
	plan     *Plan
	ledgers  []oracle.Ledger
	sessions []*Framework
	ladders  [][]oracle.Release
}

// references holds each scenario's reference run, made once per process.
var references = struct {
	sync.Mutex
	m map[string]*reference
}{m: map[string]*reference{}}

func referenceRun(t *testing.T, sc oracle.Scenario) *reference {
	t.Helper()
	if testing.Short() && sc.M() > 100 {
		t.Skip("m = 256 oracle products")
	}
	references.Lock()
	defer references.Unlock()
	if r := references.m[sc.Name]; r != nil {
		return r
	}
	pool := par.Default()
	pool.SetParallelism(1)
	defer pool.SetParallelism(0)
	n := len(sc.Seeds)
	r := &reference{plan: scenarioPlan(t, sc, world.KernelOracle, nil), ledgers: make([]oracle.Ledger, n), sessions: make([]*Framework, n)}
	if sc.Small() {
		r.ladders = make([][]oracle.Release, n)
	}
	// The sessions are independent, so they run side by side, each on
	// serial kernels.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sc.Seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.run(sc, i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	references.m[sc.Name] = r
	return r
}

// run releases the reference session of sc's i-th seed; on a Small
// scenario it enumerates the ladder before each step.
func (r *reference) run(sc oracle.Scenario, i int) error {
	seed := sc.Seeds[i]
	f, err := r.plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		return err
	}
	var l oracle.Ledger
	for _, loc := range sc.Walk(seed) {
		var rel oracle.Release
		if sc.Small() {
			if rel.Rungs, err = ladderAt(f); err != nil {
				return err
			}
		}
		res, err := f.Step(loc)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		l.Steps = append(l.Steps, stepOf(res, f.Fingerprint()))
		if sc.Small() {
			rel.Rung, rel.Obs = res.Attempts-1, res.Obs
			r.ladders[i] = append(r.ladders[i], rel)
		}
	}
	r.ledgers[i], r.sessions[i] = finish(l, f), f
	return nil
}

// same fails t unless got is want.
func same(t testing.TB, what string, got, want oracle.Ledger) {
	t.Helper()
	if d := got.Diff(want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// matchReference runs variant v on each named scenario, as a subtest.
func matchReference(t *testing.T, v func(*testing.T, oracle.Scenario, *reference), scenarios ...string) {
	for _, name := range scenarios {
		sc := oracle.Lookup(name)
		t.Run(name, func(t *testing.T) { v(t, sc, referenceRun(t, sc)) })
	}
}

// TestVariantsMatchReference runs every scenario's reference and holds
// it to itself (oracle.Ledger.Consistent) and, where the scenario is
// small enough, to the effective-mechanism oracle (checkLadders).
func TestVariantsMatchReference(t *testing.T) {
	for _, sc := range oracle.Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			ref := referenceRun(t, sc)
			for i, l := range ref.ledgers {
				if err := l.Consistent(); err != nil {
					t.Fatalf("seed %d: %v", sc.Seeds[i], err)
				}
			}
			if sc.Small() {
				checkLadders(t, sc, ref)
			}
		})
	}
}

// restoreOnto snapshots f before step k, restores the snapshot onto p
// and hands f's view back to the pools, where the restored session's
// first materialise looks first.
func restoreOnto(t testing.TB, f *Framework, p *Plan, k int) *Framework {
	t.Helper()
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.T != k || len(snap.Tags) != k || len(snap.RNG) == 0 {
		t.Fatalf("snapshot before step %d: T %d, %d tags, %d RNG bytes", k, snap.T, len(snap.Tags), len(snap.RNG))
	}
	restored, err := p.Restore(snap, NewSessionRNG(0))
	if err != nil {
		t.Fatalf("restore before step %d: %v", k, err)
	}
	if restored.T() != k || restored.Fingerprint() != f.Fingerprint() {
		t.Fatalf("restored before step %d: T %d, fingerprint %#x, want %#x", k, restored.T(), restored.Fingerprint(), f.Fingerprint())
	}
	f.Release()
	return restored
}

// restoreChain runs each seed's session with a snapshot before every step
// and after the last, restored onto each of plans in turn; the session
// steps on the last. With one plan that is a restore onto the same plan
// at every t, with two a crossing between them both ways.
func restoreChain(t *testing.T, sc oracle.Scenario, ref *reference, plans ...*Plan) {
	for i, seed := range sc.Seeds {
		got := record(t, session(t, plans[len(plans)-1], seed), sc.Walk(seed), func(k int, f *Framework) *Framework {
			for _, p := range plans {
				f = restoreOnto(t, f, p, k)
			}
			return f
		})
		same(t, fmt.Sprintf("seed %d restored at every step", seed), got, ref.ledgers[i])
	}
}

// autoRuns requires sessions of an auto plan over sc to release the
// reference, and returns the plan.
func autoRuns(t *testing.T, sc oracle.Scenario, ref *reference) *Plan {
	auto := scenarioPlan(t, sc, world.KernelAuto, nil)
	for i, seed := range sc.Seeds {
		same(t, fmt.Sprintf("seed %d", seed), record(t, session(t, auto, seed), sc.Walk(seed), nil), ref.ledgers[i])
	}
	return auto
}

// autoPaths is what auto must compile or run on each scenario's input.
var autoPaths = map[string]func(world.KernelStats) bool{
	"factored":     func(ks world.KernelStats) bool { return ks.Factored > 0 },
	"row":          func(ks world.KernelStats) bool { return ks.Blocked > 0 && ks.Factored == 0 },
	"csr":          func(ks world.KernelStats) bool { return ks.Sparse == 1 && ks.Dense == 0 },
	"dense-sparse": func(ks world.KernelStats) bool { return ks.Sparse == 1 && ks.Dense == 1 },
}

// autoKernel: auto releases the reference on the path its input selects
// (the factored path within a bound of the oracle, not bit for bit — see
// world.TestFactoredMatchesOracle — but with the same verdicts), and so
// does an auto session restored onto the oracle plan and back at every
// t.
func autoKernel(t *testing.T, sc oracle.Scenario, ref *reference) {
	auto := autoRuns(t, sc, ref)
	if ks := auto.KernelStats(); !autoPaths[sc.Name](ks) {
		t.Fatalf("auto compiled and ran %+v: not the %s path", ks, sc.Name)
	}
	restoreChain(t, sc, ref, ref.plan, auto)
}

func TestOracleAdaptiveReleaseEquivalence(t *testing.T) {
	matchReference(t, autoKernel, "factored", "row", "csr")
}

func TestDenseSparseReleaseEquivalence(t *testing.T) { matchReference(t, autoKernel, "dense-sparse") }

// parallel: auto through the worker pool at widths 1, 2, 7 and
// GOMAXPROCS, with the flops cutoff forced to 1 so even these small
// worlds dispatch, releases the reference, and so does an auto session
// restored onto the oracle plan and back at every t.
func parallel(t *testing.T, sc oracle.Scenario, ref *reference) {
	pool := par.Default()
	defer pool.SetParallelism(0)
	defer pool.SetCutoffOverride(0)
	pool.SetCutoffOverride(1)
	before := pool.Stats().ParallelDispatch
	for _, w := range slices.Compact(slices.Sorted(slices.Values([]int{1, 2, 7, runtime.GOMAXPROCS(0)}))) {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			pool.SetParallelism(w)
			restoreChain(t, sc, ref, ref.plan, autoRuns(t, sc, ref))
		})
	}
	if pool.Stats().ParallelDispatch == before {
		t.Fatal("no parallel dispatch: only serial paths ran")
	}
}

func TestParallelReleaseEquivalence(t *testing.T) {
	matchReference(t, parallel, "seed=1", "seed=17", "seed=202")
}

// restoreEveryStep: a session snapshotted before every step and restored
// onto its own plan releases the reference, on auto and on the oracle.
func restoreEveryStep(t *testing.T, sc oracle.Scenario, ref *reference) {
	restoreChain(t, sc, ref, scenarioPlan(t, sc, world.KernelAuto, nil))
	restoreChain(t, sc, ref, ref.plan)
}

func TestRestoreEquivalenceLaplace(t *testing.T) { matchReference(t, restoreEveryStep, "laplace-5x5") }

func TestRestoreEquivalenceDelta(t *testing.T) { matchReference(t, restoreEveryStep, "delta-5x5") }

// legacyNew: the single-shot core.New framework releases the reference.
func legacyNew(t *testing.T, sc oracle.Scenario, ref *reference) {
	for i, seed := range sc.Seeds {
		mech, err := sc.Mechanism(t)()
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(mech, sc.World(t), sc.ParseEvents(t), scenarioConfig(sc, world.KernelAuto), NewSessionRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		same(t, fmt.Sprintf("seed %d", seed), record(t, f, sc.Walk(seed), nil), ref.ledgers[i])
	}
}

func TestPlanSessionMatchesNew(t *testing.T) {
	matchReference(t, legacyNew, "mixed", "tight", "delta-5x5")
}

// cacheColdWarm: the scenario's sessions share one certified-release
// cache and release the reference, first cold — siblings must hit on
// each other's checks — then again over the warm cache, where every
// check hits.
func cacheColdWarm(t *testing.T, sc oracle.Scenario, ref *reference) {
	plan := scenarioPlan(t, sc, world.KernelAuto, nil)
	cache := certcache.New(1 << 14)
	plan.EnableCache(cache)
	for _, pass := range []string{"cold", "warm"} {
		before := cache.Stats()
		for i, seed := range sc.Seeds {
			same(t, fmt.Sprintf("%s seed %d", pass, seed), record(t, session(t, plan, seed), sc.Walk(seed), nil), ref.ledgers[i])
		}
		if st := cache.Stats(); pass == "cold" && st.Hits == 0 || pass == "warm" && st.Misses != before.Misses {
			t.Fatalf("%s pass over %d sessions: cache %+v, before it %+v", pass, len(sc.Seeds), st, before)
		}
	}
}

func TestCertCacheEquivalence(t *testing.T) { matchReference(t, cacheColdWarm, "mixed", "tight") }

// deferredCommit: a session that defers every commit to the next cache
// miss releases the reference, and so does an eager session on the same
// kernels (auto, which commits the Gaussian chain through its Kronecker
// factors), whose realised loss it must match bit for bit; the
// reference's it must match to lossBound. The cache is warmed for a
// random subset of each session's steps, so runs of hits of every length
// from 0 to the horizon are followed by a miss that must rebuild the
// whole run — the commits since the last miss, and only those.
func deferredCommit(t *testing.T, sc oracle.Scenario, ref *reference) {
	plan := scenarioPlan(t, sc, world.KernelAuto, nil)
	eagerPlan := scenarioPlan(t, sc, world.KernelAuto, nil)
	cache := certcache.New(1 << 16)
	m := sc.M()
	var hitSteps, longestRun int
	var lossGap float64
	for s, seed := range sc.Seeds {
		locs := sc.Walk(seed)
		pick := rand.New(rand.NewPCG(uint64(seed), 5))
		warmed := make([]bool, len(locs))
		for i := range warmed {
			warmed[i] = pick.Float64() < 0.65
		}
		// A session with the same seed draws the same candidates, so it
		// hits on the warmed steps and misses everywhere else.
		warm := session(t, plan, seed)
		for i, loc := range locs {
			plan.cache = nil
			if warmed[i] {
				plan.cache = cache
			}
			step(t, warm, loc)
		}
		plan.cache = cache

		lazy, eager := session(t, plan, seed), session(t, eagerPlan, seed)
		var got, want oracle.Ledger
		pending := 0
		for i, loc := range locs {
			r := step(t, lazy, loc)
			got.Steps = append(got.Steps, stepOf(r, lazy.Fingerprint()))
			want.Steps = append(want.Steps, stepOf(step(t, eager, loc), eager.Fingerprint()))
			if err := eager.materialise(nil); err != nil {
				t.Fatal(err)
			}
			switch {
			case r.CertCacheMisses == 0 && r.CertCacheHits > 0:
				hitSteps++
				if r.Rebuilt != 0 || lazy.applied != i-pending {
					t.Fatalf("seed %d step %d: a hit step replayed %d tags (applied %d)", seed, i, r.Rebuilt, lazy.applied)
				}
				pending++
			default:
				if r.Rebuilt != pending || lazy.applied != i {
					t.Fatalf("seed %d step %d: miss replayed %d tags, %d were pending (applied %d)", seed, i, r.Rebuilt, pending, lazy.applied)
				}
				longestRun = max(longestRun, pending)
				pending = 1
			}
			if warmed[i] && r.CertCacheMisses != 0 {
				t.Fatalf("seed %d step %d: warmed step missed the cache", seed, i)
			}
		}
		same(t, fmt.Sprintf("seed %d deferred", seed), finish(got, lazy), ref.ledgers[s])
		same(t, fmt.Sprintf("seed %d eager", seed), finish(want, eager), ref.ledgers[s])

		oracleF := ref.sessions[s]
		for e := range sc.Events {
			for _, pi := range []mat.Vector{markov.Uniform(m), vertex(m, int(seed)%m)} {
				got, gerr := lazy.RealizedLoss(e, pi)
				want, werr := eager.RealizedLoss(e, pi)
				if (gerr == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d event %d: realised loss %v (%v), eager %v (%v)", seed, e, got, gerr, want, werr)
				}
				ro, oerr := oracleF.RealizedLoss(e, pi)
				if (gerr == nil) != (oerr == nil) || math.IsInf(got, 1) != math.IsInf(ro, 1) {
					t.Fatalf("seed %d event %d: realised loss %v (%v), reference %v (%v)", seed, e, got, gerr, ro, oerr)
				}
				if gerr != nil || math.IsInf(got, 1) {
					continue
				}
				bound := lossBound(t, oracleF.quants[e], pi, len(locs))
				if d := math.Abs(got - ro); d > bound {
					t.Fatalf("seed %d event %d: realised loss %v, reference %v: gap %.3g over the bound %.3g", seed, e, got, ro, d, bound)
				}
				lossGap = max(lossGap, math.Abs(got-ro)/bound)
			}
		}
		if lazy.applied != len(locs) {
			t.Fatalf("seed %d: RealizedLoss left %d of %d tags unapplied", seed, len(locs)-lazy.applied, len(locs))
		}
	}
	if hitSteps == 0 || longestRun < 2 {
		t.Fatalf("no run of hits was followed by a miss: %d hit steps, longest rebuilt run %d", hitSteps, longestRun)
	}
	t.Logf("%d hit steps, longest run rebuilt by one miss: %d; largest realised-loss gap to the reference %.2g of the bound", hitSteps, longestRun, lossGap)
}

func TestDeferredCommitEquivalence(t *testing.T) {
	matchReference(t, deferredCommit, "6x6", "10x10", "10x10-two-events", "16x16-dense")
}
