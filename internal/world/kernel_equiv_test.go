package world

import (
	"math"
	"math/rand"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

// truncatedGaussian is the σ = 1 Gaussian chain on g with every
// transition below cutoff×(row maximum) dropped and each row
// renormalised: the Gaussian's shape as a plain matrix, which carries no
// Kronecker factors and has a band narrower than m.
func truncatedGaussian(g *grid.Grid, cutoff float64) (*markov.Chain, error) {
	c, err := markov.GaussianChain(g, 1)
	if err != nil {
		return nil, err
	}
	t := c.Matrix().Clone()
	for i := 0; i < t.Rows; i++ {
		row := t.Row(i)
		floor := cutoff * row.Max()
		for j, v := range row {
			if v < floor {
				row[j] = 0
			}
		}
		row.Normalize()
	}
	return markov.NewChain(t)
}

// TestCrossKernelEquivalence is the property-style oracle test for the
// paths auto picks: for random mobility models (dense Gaussian,
// truncated, walk; homogeneous and time-varying), random event shapes
// whose horizon spans the window end, and emission streams that force
// renormalisation, auto must agree bit-for-bit with the naive oracle on
// every Check, every Current, the LogScale sequence and the rolling
// fingerprint. The one exception is the homogeneous Gaussian chain,
// which commits through its Kronecker factors: it is held to
// TestFactoredMatchesOracle's bound instead, with exact fingerprints.
func TestCrossKernelEquivalence(t *testing.T) {
	type chainCase struct {
		name  string
		build func(g *grid.Grid) (*markov.Chain, error)
	}
	chains := []chainCase{
		{"gauss", func(g *grid.Grid) (*markov.Chain, error) { return markov.GaussianChain(g, 1) }},
		{"trunc", func(g *grid.Grid) (*markov.Chain, error) { return truncatedGaussian(g, 1e-3) }},
		{"walk", func(g *grid.Grid) (*markov.Chain, error) { return markov.LazyRandomWalk(g, 0.4) }},
	}
	rng := rand.New(rand.NewSource(42))
	for _, cc := range chains {
		for _, varying := range []bool{false, true} {
			name := cc.name
			if varying {
				name += "/varying"
			}
			t.Run(name, func(t *testing.T) {
				side := 5 + rng.Intn(3) // m in 25..49
				g := grid.MustNew(side, side, 1)
				m := g.States()
				chain, err := cc.build(g)
				if err != nil {
					t.Fatal(err)
				}
				var tp TransitionProvider = NewHomogeneous(chain)
				if varying {
					// Mix the chain with a second structure so kernels
					// alternate between steps (CSR and dense under auto).
					walk, err := markov.LazyRandomWalk(g, 0.7)
					if err != nil {
						t.Fatal(err)
					}
					tp, err = NewVarying([]*mat.Matrix{
						chain.Matrix(), walk.Matrix(), chain.Matrix(), walk.Matrix(),
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				start := 1 + rng.Intn(2)
				end := start + 1 + rng.Intn(3)
				region, err := grid.RegionRange(m, 0, m/3)
				if err != nil {
					t.Fatal(err)
				}
				ev := event.MustNewPresence(region, start, end)
				horizon := end + 3 + rng.Intn(4) // always spans the window end

				modes := []KernelMode{KernelOracle, KernelAuto}
				quants := make([]*Quantifier, len(modes))
				for i, mode := range modes {
					md, err := NewModelWithOptions(tp, ev, ModelOptions{Kernel: mode})
					if err != nil {
						t.Fatal(err)
					}
					quants[i] = NewQuantifier(md)
				}
				// factored is the auto quantifier when it commits through
				// the chain's factors; it is compared within the bound.
				var factored *Quantifier
				if quants[1].md.kernel(0).outerT != nil {
					factored = quants[1]
				}
				if wantFactored := cc.name == "gauss" && !varying; (factored != nil) != wantFactored {
					t.Fatalf("auto factored = %v, want %v", factored != nil, wantFactored)
				}
				var gaps gapTracker
				dt := depthTracker{m: m}
				same := func(q *Quantifier, label string, got, want mat.Vector) {
					t.Helper()
					if q == factored {
						gaps.within(t, label, got, want, dt.bound())
						return
					}
					sameBits(t, label, got, want)
				}
				for step := 0; step < horizon; step++ {
					col := randomEmissionColumn(rng, m)
					if step == 2 {
						// Crush the magnitude to force lazy renormalisation
						// at the same timestamp on every path.
						col.Scale(1e-130)
					}
					ref, err := quants[0].Check(col)
					if err != nil {
						t.Fatal(err)
					}
					refB := ref.BTilde.Clone()
					refC := ref.CTilde.Clone()
					for i := 1; i < len(quants); i++ {
						chk, err := quants[i].Check(col)
						if err != nil {
							t.Fatal(err)
						}
						same(quants[i], modes[i].String()+" check b", chk.BTilde, refB)
						same(quants[i], modes[i].String()+" check c", chk.CTilde, refC)
					}
					before := quants[0].LogScale()
					for _, q := range quants {
						if err := q.commitTagged(col, uint64(step)+1, step%m); err != nil {
							t.Fatal(err)
						}
					}
					dt.commit(quants[0].LogScale() != before)
					for i := 1; i < len(quants); i++ {
						ls, refLS := quants[i].LogScale(), quants[0].LogScale()
						tol := 0.0
						if quants[i] == factored {
							tol = 2*dt.bound() + float64(dt.renorms)*0x1p-52*math.Abs(refLS)
						}
						if math.Abs(ls-refLS) > tol {
							t.Fatalf("step %d mode %v: logScale %v vs oracle %v", step, modes[i], ls, refLS)
						}
						if quants[i].HistoryFingerprint() != quants[0].HistoryFingerprint() {
							t.Fatalf("step %d mode %v: fingerprint diverged", step, modes[i])
						}
						cur, refCur := quants[i].Current(), quants[0].Current()
						same(quants[i], modes[i].String()+" current b", cur.BTilde, refCur.BTilde)
						same(quants[i], modes[i].String()+" current c", cur.CTilde, refCur.CTilde)
					}
				}
				if factored != nil {
					t.Logf("auto (factored): largest relative gap %.3g, %.2g of the bound", gaps.gap, gaps.ofBound)
				}
			})
		}
	}
}
