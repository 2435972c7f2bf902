package qp_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/world"
)

// loopWorld is one of the service benchmark's worlds — the daemon's
// Gaussian chain (σ = 1, 1 km cells) on a side×side map, one PRESENCE
// event, planar Laplace at ε = 0.5, α = 1 — from which the tests below
// harvest the release checks real sessions pose.
type loopWorld struct {
	name  string
	chain *markov.Chain
	mech  *lppm.PlanarLaplace
	tp    *world.Homogeneous
	ev    event.Event
	md    *world.Model
	cfg   core.Config
}

var (
	small = loopSpec{"6x6", 6, "0-5@2-4"}
	mid   = loopSpec{"10x10", 10, "0-9@3-7"} // unique-mid's plan
	dense = loopSpec{"16x16", 16, "0-127@3-7"}
	paper = loopSpec{"20x20", 20, "0-199@3-7"} // the paper's largest map
)

type loopSpec struct {
	name  string
	side  int
	event string
}

func (s loopSpec) build(t testing.TB) *loopWorld {
	t.Helper()
	g, err := grid.New(s.side, s.side, 1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eventspec.Parse(s.event, g.States(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tp := world.NewHomogeneous(chain)
	md, err := world.NewModel(tp, ev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(0.5, 1)
	cfg.QPTimeout = 0 // releases are a function of the inputs alone
	return &loopWorld{name: s.name, chain: chain, mech: lppm.NewPlanarLaplace(g), tp: tp, ev: ev, md: md, cfg: cfg}
}

// user draws the seeded session rng and true trajectory of one user.
func (w *loopWorld) user(seed int64, steps int) (*core.SessionRNG, []int) {
	traj := w.chain.SamplePath(rand.New(rand.NewSource(seed)), markov.Uniform(w.chain.States()), steps)
	return core.NewSessionRNG(seed), traj
}

// algo1 re-executes core.Framework.Step's release loop for one user from
// exported layer calls only, with check deciding every candidate, and
// returns what the engine would report for each step.
func (w *loopWorld) algo1(t testing.TB, seed int64, steps int, check func(qp.ReleaseCheck) qp.ReleaseDecision) []core.StepResult {
	t.Helper()
	const (
		decay       = 0.5
		maxAttempts = 40
	)
	m := w.chain.States()
	minAlpha := w.cfg.Alpha * math.Pow(2, -30)
	uniformEm := mat.NewMatrix(m, m)
	for i := range uniformEm.Data {
		uniformEm.Data[i] = 1 / float64(m)
	}
	uniformCol := uniformEm.Col(0)
	q := world.NewQuantifier(w.md)
	rng, traj := w.user(seed, steps)
	buf := mat.NewVector(m)
	var out []core.StepResult
	for ts, loc := range traj {
		if err := w.mech.Begin(ts); err != nil {
			t.Fatal(err)
		}
		res := core.StepResult{T: ts}
		alpha := w.cfg.Alpha
		for attempt := 1; attempt <= maxAttempts && alpha >= minAlpha; attempt++ {
			res.Attempts = attempt
			em, err := w.mech.Emission(alpha)
			if err != nil {
				t.Fatal(err)
			}
			obs, err := lppm.SampleRow(rng, em, loc)
			if err != nil {
				t.Fatal(err)
			}
			col := em.ColInto(buf, obs)
			chk := q.CheckTrusted(col)
			chk.Epsilon = w.cfg.Epsilon
			dec := check(chk)
			if dec.OK {
				q.CommitTaggedTrusted(col, math.Float64bits(alpha), obs)
				res.Obs, res.Alpha = obs, alpha
				break
			}
			if dec.Conservative {
				res.ConservativeRejections++
			}
			alpha *= decay
		}
		if res.Alpha == 0 {
			obs, err := lppm.SampleRow(rng, uniformEm, loc)
			if err != nil {
				t.Fatal(err)
			}
			q.CommitTaggedTrusted(uniformCol, 0, obs)
			res.Obs, res.Uniform = obs, true
			res.Attempts++
		}
		out = append(out, res)
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// support lists the non-zero coordinates of π.
func support(pi mat.Vector) (nz []int) {
	for i, x := range pi {
		if x != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

// violated returns the condition that settled a rejection.
func violated(dec qp.ReleaseDecision) qp.Result {
	if dec.Eq16.Verdict == qp.Violated {
		return dec.Eq16
	}
	return dec.Eq15
}

// TestHarvestedProblemsMatchReference holds the scan to the
// branch-and-bound on every release check seeded sessions pose on the
// benchmark's three worlds: the verdicts of both conditions and the
// release decision agree, Solve's maximum lies between the bounds the
// reference certified, and whatever CheckRelease reports is attained by the
// π it reports.
func TestHarvestedProblemsMatchReference(t *testing.T) {
	for _, c := range []struct {
		spec            loopSpec
		sessions, steps int
	}{
		{small, 32, 12},
		{mid, 12, 12},
		{dense, 1, 8},
	} {
		t.Run(c.spec.name, func(t *testing.T) {
			if testing.Short() && c.spec.side > 10 {
				t.Skip("the reference takes seconds at m = 256")
			}
			w := c.spec.build(t)
			var accepted, atVertex, atEdge int
			check := func(chk qp.ReleaseCheck) qp.ReleaseDecision {
				want, err := qp.RefCheckRelease(chk, qp.ReleaseOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := qp.CheckRelease(chk, qp.ReleaseOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want.Eq15.Verdict == qp.Unknown || want.Eq16.Verdict == qp.Unknown {
					t.Fatalf("the reference ran out of nodes: %v, %v", want.Eq15.Verdict, want.Eq16.Verdict)
				}
				if got.OK != want.OK || got.Conservative != want.Conservative {
					t.Fatalf("CheckRelease = (OK %v, conservative %v), two full solves say (%v, %v)",
						got.OK, got.Conservative, want.OK, want.Conservative)
				}
				p15, p16 := qp.Conditions(chk)
				for k, p := range []qp.Problem{p15, p16} {
					ref := []qp.Result{want.Eq15, want.Eq16}[k]
					r, err := qp.Solve(p, qp.Options{Tol: 1e-9})
					if err != nil {
						t.Fatal(err)
					}
					if r.Verdict != ref.Verdict || r.Upper != r.Lower || !qp.InBracket(r, ref) {
						t.Fatalf("Eq.%d: Solve = %v in [%v, %v], reference %v in [%v, %v]",
							15+k, r.Verdict, r.Lower, r.Upper, ref.Verdict, ref.Lower, ref.Upper)
					}
					// The check stops at the first violation, so it may
					// report less than the maximum, never more, and always
					// a point that attains what it reports.
					switch in := []qp.Result{got.Eq15, got.Eq16}[k]; in.Verdict {
					case qp.Satisfied:
						if !sameBits(in.Lower, r.Lower) || !sameBits(in.Upper, r.Upper) {
							t.Fatalf("Eq.%d: the check certified [%v, %v], Solve %v", 15+k, in.Lower, in.Upper, r.Lower)
						}
					case qp.Violated:
						if v := p.Eval(in.BestPi); v != in.Lower || !(v > 1e-9) || v > r.Lower {
							t.Fatalf("Eq.%d: violation reported at %v, g(BestPi) = %v, maximum %v", 15+k, in.Lower, v, r.Lower)
						}
					case qp.Skipped:
					default:
						t.Fatalf("Eq.%d: verdict %v without a deadline", 15+k, in.Verdict)
					}
				}
				switch {
				case got.OK:
					accepted++
				case len(support(violated(got).BestPi)) == 1:
					atVertex++
				default:
					atEdge++
				}
				return got
			}
			for s := 0; s < c.sessions; s++ {
				w.algo1(t, int64(1000+s), c.steps, check)
			}
			t.Logf("%d accepted, %d rejected at a vertex, %d rejected on an edge", accepted, atVertex, atEdge)
			if accepted == 0 || atVertex == 0 || atEdge == 0 {
				t.Fatal("the harvest did not exercise every outcome of the check")
			}
		})
	}
}

// TestEngineReleasesMatchReference is the same claim one level up: what
// core.Framework reports for seeded sessions — release, budget, attempts,
// conservative rejections, fallback — is what Algorithm 1 reports when
// the reference decides every candidate.
func TestEngineReleasesMatchReference(t *testing.T) {
	ref := func(chk qp.ReleaseCheck) qp.ReleaseDecision {
		dec, err := qp.RefCheckRelease(chk, qp.ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	for _, c := range []struct {
		spec            loopSpec
		sessions, steps int
	}{
		{small, 32, 12},
		{mid, 6, 12},
	} {
		t.Run(c.spec.name, func(t *testing.T) {
			w := c.spec.build(t)
			plan, err := core.NewPlan(core.SharedMechanism(w.mech), w.tp, []event.Event{w.ev}, w.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < c.sessions; s++ {
				seed := int64(7000 + s)
				rng, traj := w.user(seed, c.steps)
				fw, err := plan.NewSession(rng)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fw.Run(traj)
				if err != nil {
					t.Fatal(err)
				}
				want := w.algo1(t, seed, c.steps, ref)
				for i := range want {
					g := got[i]
					g.CheckTime, g.Rebuilt, g.RebuildTime = 0, 0, 0
					if g != want[i] {
						t.Fatalf("session %d step %d: engine %+v, reference loop %+v", s, i, g, want[i])
					}
				}
			}
		})
	}
}

// harvested are release checks real sessions posed, by how the check ended,
// cloned so they outlive the quantifier's buffers.
type harvested struct {
	accept, atVertex, atEdge []qp.ReleaseCheck
}

type outcome struct {
	name string
	chk  qp.ReleaseCheck
}

// outcomes lists one check of each kind.
func (h harvested) outcomes() []outcome {
	return []outcome{{"accept", h.accept[0]}, {"reject-vertex", h.atVertex[0]}, {"reject-edge", h.atEdge[0]}}
}

// harvest runs seeded sessions until it holds a check of every kind.
func harvest(t testing.TB, spec loopSpec, sessions, steps int) harvested {
	w := spec.build(t)
	var h harvested
	check := func(chk qp.ReleaseCheck) qp.ReleaseDecision {
		dec, err := qp.CheckRelease(chk, qp.ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		own := qp.ReleaseCheck{ATilde: chk.ATilde, BTilde: chk.BTilde.Clone(), CTilde: chk.CTilde.Clone(), Epsilon: chk.Epsilon}
		switch {
		case dec.OK:
			h.accept = append(h.accept, own)
		case len(support(violated(dec).BestPi)) == 1:
			h.atVertex = append(h.atVertex, own)
		default:
			h.atEdge = append(h.atEdge, own)
		}
		return dec
	}
	for s := 0; len(h.accept) == 0 || len(h.atVertex) == 0 || len(h.atEdge) == 0; s++ {
		if s == sessions {
			t.Fatalf("%s: %d sessions gave %d accepts, %d vertex rejections, %d edge rejections",
				spec.name, sessions, len(h.accept), len(h.atVertex), len(h.atEdge))
		}
		w.algo1(t, int64(s), steps, check)
	}
	return h
}

// TestCheckReleaseAllocs: a check allocates the BestPi vectors it returns,
// one per condition it reports on, whatever the outcome.
func TestCheckReleaseAllocs(t *testing.T) {
	for _, c := range harvest(t, mid, 64, 12).outcomes() {
		if got := testing.AllocsPerRun(50, func() { qp.CheckRelease(c.chk, qp.ReleaseOptions{}) }); got > 2 {
			t.Errorf("%s: %v allocations per check, want at most 2", c.name, got)
		}
	}
}

// TestCheckReleaseConcurrent: checks share nothing but the scratch pool, so
// goroutines interleaving checks of different sizes decide each one as a
// lone caller does.
func TestCheckReleaseConcurrent(t *testing.T) {
	var cases []qp.ReleaseCheck
	for _, spec := range []loopSpec{small, mid} {
		for _, c := range harvest(t, spec, 64, 12).outcomes() {
			cases = append(cases, c.chk)
		}
	}
	want := make([]qp.ReleaseDecision, len(cases))
	for i, chk := range cases {
		want[i], _ = qp.CheckRelease(chk, qp.ReleaseOptions{})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (g + r) % len(cases)
				got, err := qp.CheckRelease(cases[i], qp.ReleaseOptions{})
				if err != nil || got.OK != want[i].OK ||
					got.Eq15.Verdict != want[i].Eq15.Verdict || got.Eq16.Verdict != want[i].Eq16.Verdict ||
					!sameBits(got.Eq15.Lower, want[i].Eq15.Lower) || !sameBits(got.Eq16.Lower, want[i].Eq16.Lower) {
					t.Errorf("case %d: concurrent check %+v, alone %+v (err %v)", i, got, want[i], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// pairsScanned is the number of edges the check looked at before it
// returned dec: all m(m−1)/2 of a condition it certified, those up to the
// violating edge (rows before i, then i's up to j) of the one that stopped
// it, none of a condition violated at a vertex or skipped.
func pairsScanned(dec qp.ReleaseDecision) (pairs int) {
	for _, r := range []qp.Result{dec.Eq15, dec.Eq16} {
		m := len(r.BestPi)
		switch nz := support(r.BestPi); {
		case r.Verdict == qp.Satisfied:
			pairs += m * (m - 1) / 2
		case r.Verdict == qp.Violated && len(nz) == 2:
			i, j := nz[0], nz[1]
			pairs += i*(2*m-i-1)/2 + j - i
		}
	}
	return pairs
}

// BenchmarkCheckRelease times the release check on harvested candidates:
// one the engine accepted (two full scans), one rejected at the best
// vertex, one rejected on an edge; at m = 100 (unique-mid's map), 256 and
// 400 (the paper's 20×20). pairs/op is the number of edges looked at, which
// is what the time follows: m(m−1) on an accept. A developer tool, not a
// gate.
func BenchmarkCheckRelease(b *testing.B) {
	for _, spec := range []loopSpec{mid, dense, paper} {
		for _, c := range harvest(b, spec, 64, 12).outcomes() {
			b.Run(fmt.Sprintf("m%d/%s", len(c.chk.ATilde), c.name), func(b *testing.B) {
				var dec qp.ReleaseDecision
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if dec, err = qp.CheckRelease(c.chk, qp.ReleaseOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pairsScanned(dec)), "pairs/op")
			})
		}
	}
}
