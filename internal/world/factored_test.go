package world

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/qp"
)

// The factored commit's error bound.
//
// Every quantity the quantifier computes is built from non-negative
// inputs by products and sums, so a value that passes through at most n
// roundings, each a factor (1+δ) with |δ| ≤ u = 2⁻⁵³, lies within
// γ(n) = n·u/(1−n·u) of the same expression in exact arithmetic: with no
// cancellation, the per-term errors cannot add up to more. Compare both
// the oracle and the factored path with one exact reference over the
// same inputs — the emission columns, the suffix vectors (computed
// identically in every mode), the stored M for checks and the exact
// Kronecker product outer⊗inner for commits — and count roundings on
// the longest path (the depth D):
//
//   - the first commit rounds twice (mask, emission);
//   - each later commit multiplies by Mᵀ — the oracle through an
//     m-term chain over M's entries, each one rounding of outer·inner
//     away from the reference (m+1), the factored passes through a
//     w-term then an h-term chain (w+h ≤ m+1) — then masks and scales
//     by the emission (≤ 4): D grows by m+5;
//   - a renormalisation divides by the largest entry, itself at depth
//     D, and rounds 1/scale and the product: D becomes 2D+2;
//   - a Check or Current adds at most 3m+4 (M·x, a product against the
//     forward blocks or B₁ then the forward blocks, a sum).
//
// Both paths then lie within γ(N), N = D+3m+4, of the reference, so
// |a−b| ≤ 2γ(N)/(1−γ(N))·max(a,b) = γ(2N)·max(a,b). The argument needs
// every value normal: underflow would round to an absolute, not a
// relative, error. Every compared value is checked to be zero or normal.

// gamma is γ(n) = n·u/(1−n·u).
func gamma(n int) float64 {
	nu := float64(n) * 0x1p-53
	return nu / (1 - nu)
}

// depthTracker follows D through one session's commits.
type depthTracker struct {
	m, d             int
	commits, renorms int
}

// commit advances D past one commit; renormalised reports that the
// commit moved LogScale.
func (dt *depthTracker) commit(renormalised bool) {
	if dt.commits == 0 {
		dt.d = 2
	} else {
		dt.d += dt.m + 5
	}
	dt.commits++
	if renormalised {
		dt.d = 2*dt.d + 2
		dt.renorms++
	}
}

// bound is the relative gap allowed between the two paths' b̃ or c̃.
func (dt *depthTracker) bound() float64 { return gamma(2 * (dt.d + 3*dt.m + 4)) }

// gapTracker records the largest relative gap seen and its ratio to the
// bound in force.
type gapTracker struct{ gap, ofBound float64 }

// within fails unless got and want agree componentwise to rel.
func (g *gapTracker) within(t *testing.T, label string, got, want mat.Vector, rel float64) {
	t.Helper()
	for i := range want {
		a, b := got[i], want[i]
		for _, v := range []float64{a, b} {
			if v != 0 && math.Abs(v) < 0x1p-1022 {
				t.Fatalf("%s: [%d] = %v is subnormal; the bound does not apply", label, i, v)
			}
		}
		if a == b {
			continue
		}
		r := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
		if r > rel {
			t.Fatalf("%s: [%d] = %v, oracle %v: relative gap %.3g over the bound %.3g", label, i, a, b, r, rel)
		}
		g.gap = max(g.gap, r)
		g.ofBound = max(g.ofBound, r/rel)
	}
}

// sameVerdicts fails unless CheckRelease decides the two checks alike
// at every tested ε, and counts the releases it certified.
func sameVerdicts(t *testing.T, label string, got, want qp.ReleaseCheck, accepted *int) {
	t.Helper()
	for _, eps := range []float64{0.2, 0.5, 1} {
		got.Epsilon, want.Epsilon = eps, eps
		dg, err := qp.CheckRelease(got, qp.ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dw, err := qp.CheckRelease(want, qp.ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if dg.OK != dw.OK || dg.Eq15.Verdict != dw.Eq15.Verdict || dg.Eq16.Verdict != dw.Eq16.Verdict {
			t.Fatalf("%s ε=%g: factored OK=%v (%v, %v), oracle OK=%v (%v, %v)", label, eps,
				dg.OK, dg.Eq15.Verdict, dg.Eq16.Verdict, dw.OK, dw.Eq15.Verdict, dw.Eq16.Verdict)
		}
		if dw.OK {
			*accepted++
		}
	}
}

// TestFactoredMatchesOracle holds auto's factored commits to the oracle
// within the bound above, with identical release verdicts and
// fingerprints: the gauss10 golden sessions (zero-heavy session 2,
// renormalising session 3), a non-square grid in both orientations —
// an outer/inner swap breaks it — and an odd w and h, where each pass
// ends on a single-row tail. Chains that do not factor exactly compile
// unfactored.
func TestFactoredMatchesOracle(t *testing.T) {
	plans := []goldenPlan{goldenPlans[0]}
	for _, wh := range [][2]int{{7, 4}, {4, 7}, {5, 3}} {
		plans = append(plans, goldenPlan{
			name: fmt.Sprintf("gauss%dx%d", wh[0], wh[1]), steps: 10, sessions: 4, factored: true,
			build: func(t *testing.T) (TransitionProvider, event.Event) {
				g := grid.MustNew(wh[0], wh[1], 1)
				chain, err := markov.GaussianChain(g, 1)
				if err != nil {
					t.Fatal(err)
				}
				region, err := grid.RegionRange(g.States(), 0, wh[0]-1)
				if err != nil {
					t.Fatal(err)
				}
				return NewHomogeneous(chain), event.MustNewPresence(region, 2, 5)
			},
		})
	}
	var gaps gapTracker
	var checks, accepted int
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			tp, ev := p.build(t)
			auto, err := NewModel(tp, ev)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewModelWithOptions(tp, ev, ModelOptions{Kernel: KernelOracle})
			if err != nil {
				t.Fatal(err)
			}
			m := auto.States()
			for s := 0; s < p.sessions; s++ {
				rng := rand.New(rand.NewSource(int64(1000 + s)))
				qa, qo := NewQuantifier(auto), NewQuantifier(oracle)
				dt := depthTracker{m: m}
				for step := 0; step < p.steps; step++ {
					at := fmt.Sprintf("s%d t%d", s, step)
					col := goldenColumn(rng, m, s, step)
					ca, co := qa.CheckTrusted(col), qo.CheckTrusted(col)
					gaps.within(t, at+" check b", ca.BTilde, co.BTilde, dt.bound())
					gaps.within(t, at+" check c", ca.CTilde, co.CTilde, dt.bound())
					sameVerdicts(t, at+" check", ca, co, &accepted)
					checks++

					col = goldenColumn(rng, m, s, step)
					before := qo.LogScale()
					qa.CommitTaggedTrusted(col, uint64(step)+1, step%m)
					qo.CommitTaggedTrusted(col, uint64(step)+1, step%m)
					renormalised := qo.LogScale() != before
					dt.commit(renormalised)
					if qa.HistoryFingerprint() != qo.HistoryFingerprint() {
						t.Fatalf("%s: fingerprint %#x, oracle %#x", at, qa.HistoryFingerprint(), qo.HistoryFingerprint())
					}
					// Each renormalisation's log(scale) is rounded by Log
					// and by the accumulation (2u·|LogScale|), beside the
					// scales' own gap γ(2N), doubled through log(1+x).
					la, lo := qa.LogScale(), qo.LogScale()
					if d := math.Abs(la - lo); d > 2*dt.bound()+float64(dt.renorms)*0x1p-52*math.Abs(lo) {
						t.Fatalf("%s: LogScale %v, oracle %v", at, la, lo)
					}
					cura, curo := qa.Current(), qo.Current()
					gaps.within(t, at+" current b", cura.BTilde, curo.BTilde, dt.bound())
					gaps.within(t, at+" current c", cura.CTilde, curo.CTilde, dt.bound())
				}
			}
			if ks := auto.KernelStats(); ks.Factored == 0 || ks.Blocked != 0 {
				t.Fatalf("auto dispatched %+v, want factored products only", ks)
			}
		})
	}
	if accepted == 0 || accepted == 3*checks {
		t.Fatalf("%d of %d verdicts accepted: the verdict comparison saw one outcome only", accepted, 3*checks)
	}
	t.Logf("%d checks, %d of %d verdicts accepted; largest relative gap %.3g, %.2g of the bound in force",
		checks, accepted, 3*checks, gaps.gap, gaps.ofBound)

	t.Run("zero-alloc", func(t *testing.T) {
		tp, ev := goldenPlans[0].build(t)
		md, err := NewModel(tp, ev)
		if err != nil {
			t.Fatal(err)
		}
		q := NewQuantifier(md)
		col := randomEmissionColumn(rand.New(rand.NewSource(3)), md.States())
		// 21 commits: through the window (3–7) and well past it.
		if allocs := testing.AllocsPerRun(20, func() { q.commitTrusted(col) }); allocs != 0 {
			t.Fatalf("factored commit: %v allocs/op, want 0", allocs)
		}
		if md.KernelStats().Factored == 0 {
			t.Fatal("no factored product ran")
		}
	})

	t.Run("unfactored", func(t *testing.T) {
		g := grid.MustNew(6, 6, 1)
		chain, err := markov.GaussianChain(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		outer, inner := chain.Kronecker()
		if outer == nil || compileKernel(chain.Matrix(), ModelOptions{}, outer, inner).outerT == nil {
			t.Fatal("GaussianChain did not compile factored")
		}
		bumped := chain.Matrix().Clone()
		bumped.Data[7] = math.Nextafter(bumped.Data[7], 1)
		if compileKernel(bumped, ModelOptions{}, outer, inner).outerT != nil {
			t.Fatal("a matrix one ulp off its factors compiled factored")
		}
		walk, err := markov.LazyRandomWalk(g, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if o, i := walk.Kronecker(); o != nil || i != nil {
			t.Fatal("LazyRandomWalk carries Kronecker factors")
		}
		region, err := grid.RegionRange(g.States(), 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		md, err := NewModel(NewHomogeneous(walk), event.MustNewPresence(region, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		q := NewQuantifier(md)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 6; step++ {
			q.commitTrusted(randomEmissionColumn(rng, g.States()))
		}
		if ks := md.KernelStats(); ks.Factored != 0 {
			t.Fatalf("a chain without factors ran %d factored products", ks.Factored)
		}
	})
}
