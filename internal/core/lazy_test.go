package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"priste/internal/certcache"
	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/world"
)

// lazyWorld is one map the deferred-commit tests run on: a side×side grid
// under the Gaussian chain the daemon serves (σ = 1, dense at every size
// used here) with PRESENCE events over state ranges.
type lazyWorld struct {
	name   string
	side   int
	events [][4]int // lo, hi, start, end
	shadow bool
}

var (
	lazySmall = lazyWorld{name: "6x6", side: 6, events: [][4]int{{0, 5, 2, 4}}}
	lazyMid   = lazyWorld{name: "10x10", side: 10, events: [][4]int{{0, 9, 3, 7}}}
	lazyDense = lazyWorld{name: "16x16-dense", side: 16, events: [][4]int{{0, 127, 3, 7}}}
)

// plan compiles the world for a mechanism factory (nil: one shared planar
// Laplace) with the QP deadline off, so verdicts are functions of the
// inputs alone.
func (w lazyWorld) plan(t testing.TB, kernel world.KernelMode, mf func(*grid.Grid, *markov.Chain) MechanismFactory) *Plan {
	t.Helper()
	g := grid.MustNew(w.side, w.side, 1)
	chain, err := markov.GaussianChain(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var events []event.Event
	for _, e := range w.events {
		region, err := grid.RegionRange(g.States(), e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, event.MustNewPresence(region, e[2], e[3]))
	}
	cfg := DefaultConfig(0.5, 1.0)
	cfg.QPTimeout = 0
	cfg.Kernel = kernel
	cfg.Shadow = w.shadow && kernel != world.KernelOracle
	factory := SharedMechanism(lppm.NewPlanarLaplace(g))
	if mf != nil {
		factory = mf(g, chain)
	}
	p, err := NewPlan(factory, world.NewHomogeneous(chain), events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func walk(seed int64, m, steps int) []int {
	rng := rand.New(rand.NewPCG(uint64(seed), 99))
	traj := make([]int, steps)
	for i := range traj {
		traj[i] = rng.IntN(m)
	}
	return traj
}

// TestDeferredCommitEquivalence is the contract of the lazily built
// operators: a session that defers every commit to the next cache miss
// releases exactly what a session that folds every commit into its
// operators at once does — the latter on the naive oracle kernels, so the
// reference shares neither the deferral nor the products. The cache is
// warmed for a random subset of each session's steps, so runs of hits of
// every length from 0 to the horizon are followed by a miss that must
// rebuild the whole run.
func TestDeferredCommitEquivalence(t *testing.T) {
	const horizon = 12
	cases := []struct {
		lazyWorld
		sessions int
	}{
		// 54 sessions; fewer where a step is dear (the QP at m = 100, the
		// oracle's naive 256³ products), since CI runs this under -race at
		// two widths.
		{lazySmall, 32},
		{lazyWorld{name: "6x6-shadow", side: 6, events: [][4]int{{0, 5, 2, 4}}, shadow: true}, 8},
		{lazyMid, 8},
		{lazyWorld{name: "10x10-two-events", side: 10, events: [][4]int{{0, 9, 3, 7}, {40, 59, 5, 9}}}, 4},
		{lazyDense, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.side > 10 {
				t.Skip("m = 256 oracle products")
			}
			plan := c.plan(t, world.KernelAuto, nil)
			eager := c.plan(t, world.KernelOracle, nil)
			cache := certcache.New(1 << 16)
			m := plan.States()
			var hitSteps, longestRun int
			for s := 0; s < c.sessions; s++ {
				seed := int64(7000 + s)
				traj := walk(seed, m, horizon)
				pick := rand.New(rand.NewPCG(uint64(seed), 5))
				warmed := make([]bool, horizon)
				for i := range warmed {
					warmed[i] = pick.Float64() < 0.65
				}

				// Warm the cache on the chosen steps only: a session with
				// the same seed draws the same candidates, so it hits there
				// and misses everywhere else. The shadow path caches none
				// of the checks it decides, and it decides nearly all of
				// them, so the warm-up runs unshadowed — same plan, same
				// releases, every verdict through the exact, cached path.
				plan.cfg.Shadow = false
				warm, err := plan.NewSession(NewSessionRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				for i, loc := range traj {
					plan.cache = nil
					if warmed[i] {
						plan.cache = cache
					}
					if _, err := warm.Step(loc); err != nil {
						t.Fatal(err)
					}
				}
				plan.cache, plan.cfg.Shadow = cache, c.shadow

				lazy, err := plan.NewSession(NewSessionRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := eager.NewSession(NewSessionRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				pending := 0
				for i, loc := range traj {
					got, err := lazy.Step(loc)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Step(loc)
					if err != nil {
						t.Fatal(err)
					}
					if err := ref.materialise(nil); err != nil {
						t.Fatal(err)
					}
					if got.Obs != want.Obs || got.Alpha != want.Alpha || got.Attempts != want.Attempts ||
						got.ConservativeRejections != want.ConservativeRejections || got.Uniform != want.Uniform {
						t.Fatalf("session %d step %d: deferred %+v, eager %+v", s, i, got, want)
					}
					if lazy.Fingerprint() != ref.Fingerprint() {
						t.Fatalf("session %d step %d: fingerprint %#x, eager %#x", s, i, lazy.Fingerprint(), ref.Fingerprint())
					}
					switch {
					case got.CertCacheMisses == 0 && got.CertCacheHits > 0:
						hitSteps++
						if got.Rebuilt != 0 || lazy.applied != i-pending {
							t.Fatalf("session %d step %d: a hit step replayed %d tags (applied %d)", s, i, got.Rebuilt, lazy.applied)
						}
						pending++
					default:
						// Every commit since the last miss, and only those.
						if got.Rebuilt != pending || lazy.applied != i {
							t.Fatalf("session %d step %d: miss replayed %d tags, %d were pending (applied %d)", s, i, got.Rebuilt, pending, lazy.applied)
						}
						longestRun = max(longestRun, pending)
						pending = 1
					}
					if warmed[i] && !c.shadow && got.CertCacheMisses != 0 {
						t.Fatalf("session %d step %d: warmed step missed the cache", s, i)
					}
				}
				if got, want := lazy.Tags(), ref.Tags(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("session %d: tags %v, eager %v", s, got, want)
				}
				for e := range c.events {
					for _, pi := range []mat.Vector{markov.Uniform(m), vertex(m, int(seed)%m)} {
						got, gerr := lazy.RealizedLoss(e, pi)
						want, werr := ref.RealizedLoss(e, pi)
						if (gerr == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("session %d event %d: realised loss %v (%v), eager %v (%v)", s, e, got, gerr, want, werr)
						}
					}
				}
				if lazy.applied != horizon {
					t.Fatalf("session %d: RealizedLoss left %d of %d tags unapplied", s, horizon-lazy.applied, horizon)
				}
			}
			if hitSteps == 0 || longestRun < 2 {
				t.Fatalf("no run of hits was followed by a miss: %d hit steps, longest rebuilt run %d", hitSteps, longestRun)
			}
			t.Logf("%d hit steps, longest run rebuilt by one miss: %d", hitSteps, longestRun)
		})
	}
}

func vertex(m, i int) mat.Vector {
	v := mat.NewVector(m)
	v[i] = 1
	return v
}

// TestRestoreValidatesBeforeAnyOperator: Restore no longer multiplies
// anything for a history-independent mechanism, and must still refuse at
// restore time — not at the first miss — every snapshot it refused when it
// did. (A tampered tag, an observation past the range and T past the tags
// are TestRestoreFingerprintMismatch and
// TestRestoreRejectsInconsistentSnapshot.)
func TestRestoreValidatesBeforeAnyOperator(t *testing.T) {
	plan := lazySmall.plan(t, world.KernelAuto, nil)
	fw, err := plan.NewSession(NewSessionRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(walk(3, plan.States(), 5)); err != nil {
		t.Fatal(err)
	}
	good, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// refold recomputes the fingerprint, so only the edited field is wrong.
	refold := func(s *Snapshot) {
		s.Fingerprint = world.FingerprintSeed
		for _, tag := range s.Tags {
			s.Fingerprint = world.FingerprintFold(s.Fingerprint, tag.AlphaBits, tag.Obs)
		}
	}
	bad := map[string]func(*Snapshot){
		"fingerprint":     func(s *Snapshot) { s.Fingerprint++ },
		"negative obs":    func(s *Snapshot) { s.Tags[0].Obs = -1; refold(s) },
		"negative budget": func(s *Snapshot) { s.Tags[1].AlphaBits = math.Float64bits(-1); refold(s) },
		"NaN budget":      func(s *Snapshot) { s.Tags[1].AlphaBits = math.Float64bits(math.NaN()); refold(s) },
		"infinite budget": func(s *Snapshot) { s.Tags[1].AlphaBits = math.Float64bits(math.Inf(1)); refold(s) },
		"tags past T":     func(s *Snapshot) { s.T-- },
	}
	for name, edit := range bad {
		snap := good
		snap.Tags = append([]ReleaseTag(nil), good.Tags...)
		edit(&snap)
		if _, err := plan.Restore(snap, NewSessionRNG(0)); err == nil {
			t.Errorf("%s: Restore accepted the snapshot", name)
		} else if name == "fingerprint" && !errors.Is(err, ErrFingerprintMismatch) {
			t.Errorf("%s: err = %v, want ErrFingerprintMismatch", name, err)
		}
	}
	restored, err := plan.Restore(good, NewSessionRNG(0))
	if err != nil {
		t.Fatal(err)
	}
	if restored.quants != nil || restored.applied != 0 {
		t.Fatalf("a restored planar-Laplace session holds operators (applied %d)", restored.applied)
	}
}

// flakyLaplace is a history-independent mechanism whose Emission fails on
// demand: the countdown reaches zero on the failing call.
type flakyLaplace struct {
	*lppm.PlanarLaplace
	failIn int
}

var errFlaky = errors.New("emission table unavailable")

func (f *flakyLaplace) Emission(alpha float64) (*mat.Matrix, error) {
	if f.failIn > 0 {
		if f.failIn--; f.failIn == 0 {
			return nil, errFlaky
		}
	}
	return f.PlanarLaplace.Emission(alpha)
}

// TestMaterialiseErrorSurfacesAndResumes: when re-deriving a pending
// tag's column fails, the Step that needed the operators reports it, the
// log, the clock and the cursor stay consistent (tags before the failing
// one applied, none twice), and the next Step picks the replay up where it
// stopped and releases what an undisturbed session releases.
func TestMaterialiseErrorSurfacesAndResumes(t *testing.T) {
	mech := &flakyLaplace{}
	plan := lazySmall.plan(t, world.KernelAuto, func(g *grid.Grid, _ *markov.Chain) MechanismFactory {
		mech.PlanarLaplace = lppm.NewPlanarLaplace(g)
		return SharedMechanism(mech)
	})
	if !plan.Stateless() {
		t.Fatal("wrapper lost history independence")
	}
	cache := certcache.New(1 << 12)
	plan.EnableCache(cache)
	const seed, pre = 11, 5
	traj := walk(seed, plan.States(), pre+3)

	undisturbed, err := plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := undisturbed.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	// The first pre steps hit the cache the undisturbed run filled, so
	// every one of their commits is still pending.
	fw, err := plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(traj[:pre]); err != nil {
		t.Fatal(err)
	}
	if fw.quants != nil || fw.applied != 0 {
		t.Fatalf("hit-only prefix built operators (applied %d)", fw.applied)
	}
	for i, tag := range fw.Tags() {
		if tag.AlphaBits == 0 {
			t.Fatalf("tag %d is a uniform fallback, which replays without an Emission call; pick another seed", i)
		}
	}
	// Evict everything: the next check misses and must replay pre tags.
	// Emission call 1 is the candidate's, 2 and 3 replay tags 0 and 1, and
	// call 4 — tag 2 — fails.
	plan.cache = certcache.New(1 << 12)
	before, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mech.failIn = 4
	if _, err := fw.Step(traj[pre]); !errors.Is(err, errFlaky) {
		t.Fatalf("Step over a failing replay: err = %v, want the emission failure", err)
	}
	if fw.T() != pre || len(fw.Tags()) != pre || fw.Fingerprint() != before.Fingerprint {
		t.Fatalf("failed step moved the log: T %d, %d tags, fingerprint %#x (was %#x)", fw.T(), len(fw.Tags()), fw.Fingerprint(), before.Fingerprint)
	}
	if fw.applied != 2 {
		t.Fatalf("applied = %d after failing on tag 2", fw.applied)
	}
	for _, q := range fw.quants {
		if q.T() != fw.applied {
			t.Fatalf("quantifier at t=%d, cursor at %d", q.T(), fw.applied)
		}
	}

	// The failed Step consumed a draw an undisturbed session would not
	// have; rewind the RNG so the releases that follow can be compared.
	if err := fw.rng.(*SessionRNG).UnmarshalBinary(before.RNG); err != nil {
		t.Fatal(err)
	}
	for i, loc := range traj[pre:] {
		got, err := fw.Step(loc)
		if err != nil {
			t.Fatalf("retry step %d: %v", i, err)
		}
		w := want[pre+i]
		if got.Obs != w.Obs || got.Alpha != w.Alpha || got.Attempts != w.Attempts || got.Uniform != w.Uniform {
			t.Fatalf("retry step %d: %+v, undisturbed %+v", i, got, w)
		}
		if i == 0 && got.Rebuilt != pre-2 {
			t.Fatalf("retry replayed %d tags, want the %d the failed attempt left", got.Rebuilt, pre-2)
		}
	}
	if fw.Fingerprint() != undisturbed.Fingerprint() {
		t.Fatalf("fingerprint %#x, undisturbed %#x", fw.Fingerprint(), undisturbed.Fingerprint())
	}
}

// TestMaterialiseHoldsOperatorsToTheLog: operators that do not fold to the
// log's fingerprint are refused whenever they are advanced.
func TestMaterialiseHoldsOperatorsToTheLog(t *testing.T) {
	plan := lazySmall.plan(t, world.KernelAuto, nil)
	fw, err := plan.NewSession(NewSessionRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(walk(1, plan.States(), 4)); err != nil {
		t.Fatal(err)
	}
	fw.fp ^= 1
	if _, err := fw.Step(0); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("Step over a log whose fingerprint the operators do not reproduce: err = %v", err)
	}
}

// allocatedBytes returns what one call of fn allocates, the least of
// three calls (see the same helper in internal/rpc).
func allocatedBytes(fn func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestHitPathTouchesNoOperator states the deferral structurally instead of
// by timing, on the m = 256 dense world where a commit is two 256³
// products: sessions whose every check hits the cache, and Restore, run no
// operator product and allocate no operator — a hit step allocates nothing
// at all once the tag log has room.
func TestHitPathTouchesNoOperator(t *testing.T) {
	if testing.Short() {
		t.Skip("m = 256 warm-up")
	}
	const seed, horizon = 21, 12
	plan := lazyDense.plan(t, world.KernelAuto, nil)
	plan.EnableCache(certcache.New(1 << 14))
	traj := walk(seed, plan.States(), horizon)
	products := func() int64 { ks := plan.KernelStats(); return ks.Blocked + ks.Banded }

	if got := allocatedBytes(func() { _, _ = plan.NewSession(NewSessionRNG(seed)) }); got >= 8<<10 {
		t.Errorf("NewSession on m=256 allocated %d bytes, want < 8 KB (no quantifier)", got)
	}

	warm, err := plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(traj); err != nil {
		t.Fatal(err)
	}
	if products() == 0 {
		t.Fatal("the all-miss warm-up ran no operator product: the counters do not see this world")
	}

	base := products()
	fw, err := plan.NewSession(NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.CertCacheMisses != 0 || r.Rebuilt != 0 {
			t.Fatalf("replayed step %d missed the cache: %+v", i, r)
		}
	}
	if fw.quants != nil || fw.applied != 0 || products() != base {
		t.Fatalf("an all-hit session built operators: applied %d, %d products", fw.applied, products()-base)
	}

	snap, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := plan.Restore(snap, NewSessionRNG(0))
	if err != nil {
		t.Fatal(err)
	}
	if restored.quants != nil || products() != base {
		t.Fatalf("Restore built operators: %d products", products()-base)
	}
	// The operators exist once something reads them, and are the log's.
	if _, err := restored.RealizedLoss(0, markov.Uniform(plan.States())); err != nil {
		t.Fatal(err)
	}
	if restored.applied != horizon || products() == base {
		t.Fatalf("RealizedLoss read operators nobody built (applied %d)", restored.applied)
	}

	// With room in the tag log, a whole all-hit session allocates what
	// minting it does and not one object more.
	session := func(steps []int) func() {
		return func() {
			f, err := plan.NewSession(NewSessionRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			f.tags = make([]ReleaseTag, 0, horizon)
			for _, loc := range steps {
				if _, err := f.Step(loc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if mint, run := testing.AllocsPerRun(10, session(nil)), testing.AllocsPerRun(10, session(traj)); run != mint {
		t.Errorf("%d hit steps allocated %v objects beyond the %v of minting the session", horizon, run-mint, mint)
	}
}

// TestStatefulCommitStaysEager: a δ-location-set session has no cache and
// its Observe needs each committed column before the next Begin, so its
// operators never lag its log — the same materialise, called by commit.
func TestStatefulCommitStaysEager(t *testing.T) {
	plan := lazySmall.plan(t, world.KernelAuto, func(g *grid.Grid, chain *markov.Chain) MechanismFactory {
		return func() (lppm.Perturber, error) {
			return lppm.NewDeltaLocationSet(g, chain, markov.Uniform(g.States()), 0.05)
		}
	})
	if plan.Stateless() {
		t.Fatal("δ-location-set reported history-independent")
	}
	fw, err := plan.NewSession(NewSessionRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, loc := range walk(5, plan.States(), 8) {
		res, err := fw.Step(loc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilt != 1 || fw.applied != i+1 {
			t.Fatalf("step %d: rebuilt %d, applied %d — a stateful commit was deferred", i, res.Rebuilt, fw.applied)
		}
	}
	snap, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := plan.Restore(snap, NewSessionRNG(0))
	if err != nil {
		t.Fatal(err)
	}
	if restored.applied != len(snap.Tags) {
		t.Fatalf("stateful Restore left %d tags unapplied", len(snap.Tags)-restored.applied)
	}
}
