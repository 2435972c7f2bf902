package hmm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priste/internal/markov"
	"priste/internal/mat"
)

func chain3() *markov.Chain {
	return markov.MustNewChain(mat.FromRows([][]float64{
		{0.1, 0.2, 0.7},
		{0.4, 0.1, 0.5},
		{0, 0.1, 0.9},
	}))
}

func noisyEmission3() *MatrixEmission {
	return MustNewMatrixEmission(mat.FromRows([][]float64{
		{0.8, 0.1, 0.1},
		{0.1, 0.8, 0.1},
		{0.1, 0.1, 0.8},
	}))
}

func model3(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(chain3(), markov.Uniform(3), noisyEmission3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatrixEmissionValidation(t *testing.T) {
	if _, err := NewMatrixEmission(mat.NewMatrix(0, 0)); err == nil {
		t.Error("expected error for empty")
	}
	bad := mat.FromRows([][]float64{{0.5, 0.6}})
	if _, err := NewMatrixEmission(bad); err == nil {
		t.Error("expected error for non-stochastic row")
	}
	neg := mat.FromRows([][]float64{{1.2, -0.2}})
	if _, err := NewMatrixEmission(neg); err == nil {
		t.Error("expected error for negative probability")
	}
}

func TestNewModelValidation(t *testing.T) {
	c := chain3()
	e := noisyEmission3()
	if _, err := NewModel(c, markov.Uniform(2), e); err == nil {
		t.Error("expected error for initial length mismatch")
	}
	bad := mat.Vector{0.5, 0.2, 0.2}
	if _, err := NewModel(c, bad, e); err == nil {
		t.Error("expected error for non-distribution initial")
	}
	e2 := MustNewMatrixEmission(mat.FromRows([][]float64{{1, 0}, {0, 1}}))
	if _, err := NewModel(c, markov.Uniform(3), e2); err == nil {
		t.Error("expected error for emission state mismatch")
	}
}

// Brute-force joint probability Pr(o_1..o_T) by enumerating all hidden paths.
func bruteLikelihood(m *Model, obs []int) float64 {
	states := m.Chain.States()
	var rec func(t, prev int, p float64) float64
	rec = func(t, prev int, p float64) float64 {
		if t == len(obs) {
			return p
		}
		var total float64
		for s := 0; s < states; s++ {
			var trans float64
			if t == 0 {
				trans = m.Initial[s]
			} else {
				trans = m.Chain.Prob(prev, s)
			}
			if trans == 0 {
				continue
			}
			e := m.Emit.EmissionColumn(t, obs[t])[s]
			if e == 0 {
				continue
			}
			total += rec(t+1, s, p*trans*e)
		}
		return total
	}
	return rec(0, 0, 1)
}

func TestForwardLikelihoodMatchesBruteForce(t *testing.T) {
	m := model3(t)
	obs := []int{0, 2, 1, 2}
	_, ll, err := m.Forward(obs)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteLikelihood(m, obs)
	if math.Abs(math.Exp(ll)-want) > 1e-12 {
		t.Fatalf("likelihood = %v want %v", math.Exp(ll), want)
	}
}

func TestForwardFilteringDistributions(t *testing.T) {
	m := model3(t)
	alphas, _, err := m.Forward([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for t2, a := range alphas {
		if !a.IsDistribution(1e-9) {
			t.Fatalf("alpha[%d] = %v not a distribution", t2, a)
		}
	}
	// First observation 0 with strong emission at state 0 should favour 0.
	if alphas[0].ArgMax() != 0 {
		t.Fatalf("alpha[0] = %v, expected mode at state 0", alphas[0])
	}
}

func TestForwardErrors(t *testing.T) {
	m := model3(t)
	if _, _, err := m.Forward(nil); err == nil {
		t.Error("expected error for empty observations")
	}
	// Impossible observation: emission column all zeros for obs at t=0.
	e := MustNewMatrixEmission(mat.FromRows([][]float64{
		{1, 0}, {1, 0},
	}))
	c := markov.MustNewChain(mat.FromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	m2, _ := NewModel(c, markov.Uniform(2), e)
	if _, _, err := m2.Forward([]int{1}); err == nil {
		t.Error("expected zero-likelihood error")
	}
}

func TestSmoothMatchesBruteForcePosterior(t *testing.T) {
	m := model3(t)
	obs := []int{0, 2, 1}
	smooth, err := m.Smooth(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force Pr(u_t = s | obs) for all t,s.
	states := 3
	total := bruteLikelihood(m, obs)
	for tt := 0; tt < len(obs); tt++ {
		for s := 0; s < states; s++ {
			// Sum over all paths with u_tt = s.
			var sum float64
			var rec func(t, prev int, p float64)
			rec = func(t, prev int, p float64) {
				if t == len(obs) {
					sum += p
					return
				}
				for st := 0; st < states; st++ {
					if t == tt && st != s {
						continue
					}
					var trans float64
					if t == 0 {
						trans = m.Initial[st]
					} else {
						trans = m.Chain.Prob(prev, st)
					}
					e := m.Emit.EmissionColumn(t, obs[t])[st]
					if trans*e == 0 {
						continue
					}
					rec(t+1, st, p*trans*e)
				}
			}
			rec(0, 0, 1)
			want := sum / total
			if math.Abs(smooth[tt][s]-want) > 1e-10 {
				t.Fatalf("smooth[%d][%d] = %v want %v", tt, s, smooth[tt][s], want)
			}
		}
	}
}

// TestFilterEq21: the forward pass's first step is the single-step
// Bayesian update of Eq. 21, p⁺[i] ∝ Pr(o|u=s_i)·p⁻[i].
func TestFilterEq21(t *testing.T) {
	prior := mat.Vector{0.5, 0.3, 0.2}
	m, err := NewModel(chain3(), prior, MustNewMatrixEmission(mat.FromRows([][]float64{
		{0.1, 0.9}, {0.8, 0.2}, {0.1, 0.9},
	})))
	if err != nil {
		t.Fatal(err)
	}
	alphas, _, err := m.Forward([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	post := alphas[0]
	z := 0.5*0.1 + 0.3*0.8 + 0.2*0.1
	want := mat.Vector{0.05 / z, 0.24 / z, 0.02 / z}
	if !post.EqualApprox(want, 1e-12) {
		t.Fatalf("posterior = %v want %v", post, want)
	}
}

func TestViterbiRecoversCleanPath(t *testing.T) {
	// Near-deterministic chain and near-perfect emissions: Viterbi should
	// recover the true path from its observations.
	c := markov.MustNewChain(mat.FromRows([][]float64{
		{0.02, 0.96, 0.02},
		{0.02, 0.02, 0.96},
		{0.96, 0.02, 0.02},
	}))
	e := MustNewMatrixEmission(mat.FromRows([][]float64{
		{0.96, 0.02, 0.02},
		{0.02, 0.96, 0.02},
		{0.02, 0.02, 0.96},
	}))
	m, err := NewModel(c, markov.Delta(3, 0), e)
	if err != nil {
		t.Fatal(err)
	}
	obs := []int{0, 1, 2, 0, 1, 2}
	path, score, err := m.Viterbi(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(score, -1) {
		t.Fatal("score is -Inf")
	}
	for i, want := range []int{0, 1, 2, 0, 1, 2} {
		if path[i] != want {
			t.Fatalf("path = %v", path)
		}
	}
}

func TestViterbiImpossible(t *testing.T) {
	c := markov.MustNewChain(mat.FromRows([][]float64{{1, 0}, {0, 1}}))
	e := MustNewMatrixEmission(mat.FromRows([][]float64{{1, 0}, {1, 0}}))
	m, _ := NewModel(c, mat.Vector{1, 0}, e)
	if _, _, err := m.Viterbi([]int{1}); err == nil {
		t.Error("expected error for impossible observation")
	}
}

// Property: smoothing marginals are consistent with the forward filter at
// the final timestamp (β_T = 1 ⇒ smooth[T-1] == alpha[T-1]).
func TestSmoothFinalEqualsFilterProperty(t *testing.T) {
	m := model3(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		obs := make([]int, n)
		for i := range obs {
			obs[i] = rng.Intn(3)
		}
		alphas, _, err := m.Forward(obs)
		if err != nil {
			return false
		}
		smooth, err := m.Smooth(obs)
		if err != nil {
			return false
		}
		return smooth[n-1].EqualApprox(alphas[n-1], 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: total likelihood of all observation sequences of length n is 1.
func TestLikelihoodSumsToOneProperty(t *testing.T) {
	m := model3(t)
	for _, n := range []int{1, 2, 3} {
		var total float64
		var rec func(prefix []int)
		rec = func(prefix []int) {
			if len(prefix) == n {
				ll, err := m.LogLikelihood(prefix)
				if err == nil {
					total += math.Exp(ll)
				}
				return
			}
			for o := 0; o < 3; o++ {
				rec(append(prefix, o))
			}
		}
		rec(nil)
		if math.Abs(total-1) > 1e-10 {
			t.Fatalf("sum of likelihoods over length-%d sequences = %v", n, total)
		}
	}
}
