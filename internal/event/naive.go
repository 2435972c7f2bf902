package event

import (
	"fmt"

	"priste/internal/markov"
	"priste/internal/mat"
)

// This file implements the naive exponential-time computations of
// Appendix B. They exist for two reasons: as the ground truth the efficient
// two-possible-world method is validated against in tests, and as the
// "baseline" whose runtime Fig. 14 compares against PriSTE.

// NaivePrior computes Pr(EVENT) by enumerating every trajectory over
// timestamps 0..horizon-1 and summing the probabilities of those on which
// expr evaluates true (Appendix B.1). Complexity O(m^horizon) — use only
// for small instances.
func NaivePrior(c *markov.Chain, pi mat.Vector, expr *Expr, horizon int) (float64, error) {
	if err := checkNaiveArgs(c, pi, expr, horizon); err != nil {
		return 0, err
	}
	var total float64
	forEachTrajectory(c, pi, horizon, func(traj []int, p float64) {
		if expr.Eval(traj) {
			total += p
		}
	})
	return total, nil
}

// NaiveJoint computes Pr(EVENT, o_0..o_{len(obs)-1}) by enumerating every
// hidden trajectory over timestamps 0..horizon-1, weighting each by the
// emission likelihood of the observed prefix. emission(t, obs, state) must
// return Pr(o_t = obs | u_t = state). horizon must be ≥ len(obs) and large
// enough to cover the expression.
func NaiveJoint(c *markov.Chain, pi mat.Vector, expr *Expr, obs []int,
	emission func(t, obs, state int) float64, horizon int) (float64, error) {
	if err := checkNaiveArgs(c, pi, expr, horizon); err != nil {
		return 0, err
	}
	if emission == nil {
		return 0, fmt.Errorf("event: nil emission function")
	}
	if len(obs) > horizon {
		return 0, fmt.Errorf("event: %d observations exceed horizon %d", len(obs), horizon)
	}
	var total float64
	forEachTrajectory(c, pi, horizon, func(traj []int, p float64) {
		if !expr.Eval(traj) {
			return
		}
		w := p
		for t, o := range obs {
			w *= emission(t, o, traj[t])
			if w == 0 {
				return
			}
		}
		total += w
	})
	return total, nil
}

// NaivePatternJoint is Algorithm 4 of Appendix B: it enumerates only the
// trajectories *inside* the pattern's regions (width^length of them, rather
// than m^horizon) and returns Pr(PATTERN, o_start..o_end) given the
// distribution at the timestamp immediately before the window. pBefore is
// the state distribution at timestamp start-1 (or the initial distribution
// if start == 0, in which case the first region constraint applies to it
// directly). obs must cover timestamps start..end of the window.
func NaivePatternJoint(c *markov.Chain, pBefore mat.Vector, p *Pattern,
	obs []int, emission func(t, obs, state int) float64) (float64, error) {
	if c.States() != len(pBefore) {
		return 0, fmt.Errorf("event: distribution length %d != states %d", len(pBefore), c.States())
	}
	if p.States() != c.States() {
		return 0, fmt.Errorf("event: pattern over %d states, chain has %d", p.States(), c.States())
	}
	start, end := p.Window()
	if len(obs) != end-start+1 {
		return 0, fmt.Errorf("event: need %d observations covering the window, got %d", end-start+1, len(obs))
	}
	if emission == nil {
		return 0, fmt.Errorf("event: nil emission function")
	}
	// Enumerate region trajectories depth-first, carrying the joint weight.
	var total float64
	states := make([]int, len(p.Regions))
	var rec func(idx int, w float64)
	rec = func(idx int, w float64) {
		if idx == len(p.Regions) {
			total += w
			return
		}
		t := start + idx
		for _, s := range p.Regions[idx].States() {
			var step float64
			if idx == 0 {
				if start == 0 {
					step = pBefore[s]
				} else {
					// One Markov transition from the pre-window state
					// distribution into the first region.
					step = 0
					for i, pi := range pBefore {
						step += pi * c.Prob(i, s)
					}
				}
			} else {
				step = c.Prob(states[idx-1], s)
			}
			if step == 0 {
				continue
			}
			e := emission(t, obs[idx], s)
			if e == 0 {
				continue
			}
			states[idx] = s
			rec(idx+1, w*step*e)
		}
	}
	rec(0, 1)
	return total, nil
}

// naivePatternPrior sums Pr over all region trajectories of the pattern
// (Example B.1), given the state distribution just before the window.
func naivePatternPrior(c *markov.Chain, pBefore mat.Vector, p *Pattern) (float64, error) {
	one := func(int, int, int) float64 { return 1 }
	start, end := p.Window()
	obs := make([]int, end-start+1)
	return NaivePatternJoint(c, pBefore, p, obs, one)
}

// trajectoryCount returns the number of region trajectories Algorithm 4
// enumerates: ∏ |Regions[i]|, the baseline's exponential blow-up.
func (p *Pattern) trajectoryCount() int {
	n := 1
	for _, r := range p.Regions {
		n *= r.Count()
	}
	return n
}

func checkNaiveArgs(c *markov.Chain, pi mat.Vector, expr *Expr, horizon int) error {
	if expr == nil {
		return fmt.Errorf("event: nil expression")
	}
	if horizon <= expr.MaxTime() {
		return fmt.Errorf("event: horizon %d does not cover expression max time %d", horizon, expr.MaxTime())
	}
	if c.States() != len(pi) {
		return fmt.Errorf("event: initial length %d != states %d", len(pi), c.States())
	}
	if !pi.IsDistribution(1e-8) {
		return fmt.Errorf("event: initial vector is not a distribution")
	}
	return nil
}

// forEachTrajectory enumerates all m^horizon trajectories with their
// probabilities, skipping zero-probability prefixes.
func forEachTrajectory(c *markov.Chain, pi mat.Vector, horizon int, f func(traj []int, p float64)) {
	traj := make([]int, horizon)
	m := c.States()
	var rec func(t int, p float64)
	rec = func(t int, p float64) {
		if t == horizon {
			f(traj, p)
			return
		}
		for s := 0; s < m; s++ {
			var step float64
			if t == 0 {
				step = pi[s]
			} else {
				step = c.Prob(traj[t-1], s)
			}
			if step == 0 {
				continue
			}
			traj[t] = s
			rec(t+1, p*step)
		}
	}
	rec(0, 1)
}
