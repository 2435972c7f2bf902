package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"priste/internal/certcache"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/oracle"
	"priste/internal/qp"
	"priste/internal/world"
)

// lossBound is how far the realised loss of a session may sit from the
// oracle's after steps commits, given the oracle's quantifier q. Per
// world's TestFactoredMatchesOracle, every b̃ and c̃ entry of the two
// paths lies within γ(N) of one exact reference, N = D+3m+4 with D =
// 2+(steps−1)(m+5) when nothing renormalised; the dot with π adds m
// roundings, so pj = π·b̃ and pob = π·c̃ differ by g = γ(2(N+m))
// relative. log(pj/pe) then moves by ≤ 2g, log((pob−pj)/(1−pe)) by ≤
// 2g·(pob+pj)/(pob−pj) — the one cancellation in the loss — and the
// final divisions, subtraction and log add a few roundings more.
func lossBound(t *testing.T, q *world.Quantifier, pi mat.Vector, steps int) float64 {
	t.Helper()
	if q.LogScale() != 0 {
		t.Fatal("the session renormalised: lossBound assumes it did not")
	}
	const u = 0x1p-53
	m := len(pi)
	n := 2 * (2 + (steps-1)*(m+5) + 3*m + 4 + m)
	g := float64(n) * u / (1 - float64(n)*u)
	cur := q.Current()
	pj, pob := pi.Dot(cur.BTilde), pi.Dot(cur.CTilde)
	loss, err := qp.FixedPiLoss(cur, pi)
	if err != nil {
		t.Fatal(err)
	}
	return 2*g + 2*g*(1+g)*(pob+pj)/(pob-pj) + 16*u*(1+loss)
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
	plan := scenarioPlan(t, oracle.Lookup("6x6"), world.KernelAuto, nil)
	fw, err := plan.NewSession(NewSessionRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(oracle.Walk(3, plan.States(), 5)); err != nil {
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
	sc := oracle.Lookup("6x6")
	mech.PlanarLaplace = lppm.NewPlanarLaplace(sc.Grid())
	plan := scenarioPlan(t, sc, world.KernelAuto, SharedMechanism(mech))
	if !plan.stateless {
		t.Fatal("wrapper lost history independence")
	}
	cache := certcache.New(1 << 12)
	plan.EnableCache(cache)
	const seed, pre = 11, 5
	traj := oracle.Walk(seed, plan.States(), pre+3)

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
	plan := scenarioPlan(t, oracle.Lookup("6x6"), world.KernelAuto, nil)
	fw, err := plan.NewSession(NewSessionRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Run(oracle.Walk(1, plan.States(), 4)); err != nil {
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
	plan := scenarioPlan(t, oracle.Lookup("16x16-dense"), world.KernelAuto, nil)
	plan.EnableCache(certcache.New(1 << 14))
	traj := oracle.Walk(seed, plan.States(), horizon)
	products := func() int64 { ks := plan.KernelStats(); return ks.Blocked + ks.Factored }

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
	plan := scenarioPlan(t, oracle.Lookup("delta-5x5"), world.KernelAuto, nil)
	if plan.stateless {
		t.Fatal("δ-location-set reported history-independent")
	}
	fw, err := plan.NewSession(NewSessionRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, loc := range oracle.Walk(5, plan.States(), 8) {
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
