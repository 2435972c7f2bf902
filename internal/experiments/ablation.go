package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"priste/internal/core"
	"priste/internal/lppm"
	"priste/internal/mat"
	"priste/internal/metrics"
	"priste/internal/qp"
	"priste/internal/world"
)

// Ablations beyond the paper's figures, for the design choices below:
//
//   - AblationDecay sweeps the budget-decay factor of Algorithm 2 (the
//     paper fixes 1/2 and notes it trades efficiency against utility).
//   - AblationModelMismatch implements the paper's stated future work
//     (§IV-C privacy analysis): the realised privacy loss when the true
//     mobility correlations differ from the modelled transition matrix.

// AblationDecay reports, per decay factor, the average released budget,
// the average number of candidate draws per timestamp and the Euclidean
// utility. Small decays converge in fewer attempts but over-perturb;
// large decays spend more attempts to keep more budget (§IV-C).
func AblationDecay(synth SyntheticConfig, decays []float64, alpha, epsilon float64) (*Table, error) {
	w, err := Synthetic(synth)
	if err != nil {
		return nil, err
	}
	events, err := BudgetFigConfig{States: [2]int{1, 10}, Windows: [][2]int{{4, 8}}}.events(w)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Name:    fmt.Sprintf("Ablation: budget decay factor (%g-PLM, eps=%g)", alpha, epsilon),
		Note:    "paper's Algorithm 2 fixes decay=0.5; the factor trades attempts against retained budget",
		Columns: []string{"decay", "avg_budget", "avg_attempts_per_step", "avg_dist", "uniform_fallbacks"},
	}
	for _, d := range decays {
		runs, err := RunReleases(w, events, ReleaseSpec{
			Kind: PLM, Alpha: alpha, Epsilon: epsilon, Decay: d,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: decay=%g: %w", d, err)
		}
		budget, err := metrics.AvgBudget(runs)
		if err != nil {
			return nil, err
		}
		dist, err := metrics.AvgEuclid(w.Grid, w.Trajs, runs)
		if err != nil {
			return nil, err
		}
		var attempts, steps, uniform int
		for _, r := range runs {
			for _, s := range r {
				attempts += s.Attempts
				steps++
				if s.Uniform {
					uniform++
				}
			}
		}
		tab.AddRow(f3(d), f4(budget.Mean),
			f3(float64(attempts)/float64(steps)), f4(dist.Mean), fmt.Sprintf("%d", uniform))
	}
	return tab, nil
}

// AblationModelMismatch calibrates releases against a *modelled* chain
// (Gaussian scale modelSigma) while the user actually moves — and the
// adversary actually reasons — according to chains of different true
// scales. For each true σ it reports the worst realised privacy loss over
// sampled adversary priors, measured under the true chain, against the
// nominal ε. Matching σ must respect ε; mismatched σ may exceed it, which
// quantifies the sensitivity the paper defers to future work.
func AblationModelMismatch(synth SyntheticConfig, modelSigma float64, trueSigmas []float64, alpha, epsilon float64, priors int) (*Table, error) {
	modelCfg := synth
	modelCfg.Sigma = modelSigma
	modelW, err := Synthetic(modelCfg)
	if err != nil {
		return nil, err
	}
	events, err := BudgetFigConfig{States: [2]int{1, 10}, Windows: [][2]int{{4, 8}}}.events(modelW)
	if err != nil {
		return nil, err
	}
	ev := events[0]
	modelTP := world.NewHomogeneous(modelW.Chain)
	tab := &Table{
		Name:    fmt.Sprintf("Ablation: transition-model mismatch (model sigma=%g, %g-PLM, eps=%g)", modelSigma, alpha, epsilon),
		Note:    "release calibrated under the modelled chain; loss measured under the true chain",
		Columns: []string{"true_sigma", "max_realized_loss", "mean_realized_loss", "exceeds_eps"},
	}
	plm := lppm.NewPlanarLaplace(modelW.Grid)
	uniCol := mat.NewVector(modelW.Grid.States())
	for i := range uniCol {
		uniCol[i] = 1 / float64(len(uniCol))
	}
	for _, ts := range trueSigmas {
		trueCfg := synth
		trueCfg.Sigma = ts
		trueW, err := Synthetic(trueCfg)
		if err != nil {
			return nil, err
		}
		trueTP := world.NewHomogeneous(trueW.Chain)
		trueMD, err := world.NewModel(trueTP, ev)
		if err != nil {
			return nil, err
		}
		var maxLoss, sumLoss float64
		var lossCount int
		for k, traj := range trueW.Trajs {
			rng := rand.New(rand.NewSource(trueW.Seed + 7919*int64(k+1)))
			fw, err := core.New(plm, modelTP, events, core.DefaultConfig(epsilon, alpha), rng)
			if err != nil {
				return nil, err
			}
			results, err := fw.Run(traj)
			if err != nil {
				return nil, err
			}
			// Recover the emission columns actually used and replay them
			// through a quantifier built on the TRUE chain.
			cols := make([]mat.Vector, len(results))
			for t, r := range results {
				if r.Uniform {
					cols[t] = uniCol
					continue
				}
				em, err := plm.Emission(r.Alpha)
				if err != nil {
					return nil, err
				}
				cols[t] = em.Col(r.Obs)
			}
			q := world.NewQuantifier(trueMD)
			for _, c := range cols {
				if err := q.Commit(c); err != nil {
					return nil, err
				}
			}
			chk := q.Current()
			prng := rand.New(rand.NewSource(13 * int64(k+1)))
			for p := 0; p < priors; p++ {
				pi := randomPrior(prng, len(uniCol), p)
				loss, err := qp.FixedPiLoss(chk, pi)
				if err != nil || math.IsInf(loss, 1) {
					continue
				}
				sumLoss += loss
				lossCount++
				if loss > maxLoss {
					maxLoss = loss
				}
			}
			q.Release() // chk aliases q's buffers: last use above
		}
		mean := 0.0
		if lossCount > 0 {
			mean = sumLoss / float64(lossCount)
		}
		tab.AddRow(f3(ts), f4(maxLoss), f4(mean), fmt.Sprintf("%t", maxLoss > epsilon*(1+1e-9)))
	}
	return tab, nil
}

// randomPrior produces a spread of adversary priors: uniform first, then
// increasingly concentrated random beliefs.
func randomPrior(rng *rand.Rand, m, k int) mat.Vector {
	pi := mat.NewVector(m)
	if k == 0 {
		for i := range pi {
			pi[i] = 1 / float64(m)
		}
		return pi
	}
	// Dirichlet-ish: exponential weights raised to a growing power.
	pow := 1.0 + float64(k%5)
	for i := range pi {
		pi[i] = math.Pow(rng.ExpFloat64(), pow)
	}
	pi.Normalize()
	return pi
}
