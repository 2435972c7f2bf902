package markov

import (
	"fmt"

	"priste/internal/mat"
)

// TrainOptions controls maximum-likelihood estimation of a transition
// matrix from trajectories.
type TrainOptions struct {
	// States is the size m of the state space. Required.
	States int
	// Smoothing is the additive (Laplace) smoothing constant applied to
	// every transition count. Zero gives the raw MLE; rows with no
	// observations fall back to self-loops unless Smoothing > 0.
	Smoothing float64
}

// Train estimates a first-order transition matrix from one or more
// trajectories, mirroring what the paper does with the R package
// "markovchain" on the Geolife traces. Each trajectory is a sequence of
// state indices.
func Train(trajs [][]int, opt TrainOptions) (*Chain, error) {
	m := opt.States
	if m <= 0 {
		return nil, fmt.Errorf("markov: TrainOptions.States must be positive, got %d", m)
	}
	if opt.Smoothing < 0 {
		return nil, fmt.Errorf("markov: negative smoothing %g", opt.Smoothing)
	}
	counts := mat.NewMatrix(m, m)
	total := 0
	for ti, traj := range trajs {
		for k := 0; k+1 < len(traj); k++ {
			a, b := traj[k], traj[k+1]
			if a < 0 || a >= m || b < 0 || b >= m {
				return nil, fmt.Errorf("markov: trajectory %d has state outside [0,%d) at step %d", ti, m, k)
			}
			counts.Set(a, b, counts.At(a, b)+1)
			total++
		}
	}
	if total == 0 && opt.Smoothing == 0 {
		return nil, fmt.Errorf("markov: no transitions observed and no smoothing requested")
	}
	t := mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		row := counts.Row(i)
		// float64(x*y) forbids arm64's fused multiply-add: a trained chain
		// has the same bits on every machine.
		sum := row.Sum() + float64(opt.Smoothing*float64(m))
		out := t.Row(i)
		if sum == 0 {
			// Unvisited state with no smoothing: self-loop keeps the
			// matrix stochastic without inventing transitions.
			out[i] = 1
			continue
		}
		for j := range out {
			out[j] = (row[j] + opt.Smoothing) / sum
		}
	}
	return NewChain(t)
}

// EmpiricalInitial estimates an initial distribution from the first states
// of the given trajectories, with additive smoothing.
func EmpiricalInitial(trajs [][]int, m int, smoothing float64) (mat.Vector, error) {
	if m <= 0 {
		return nil, fmt.Errorf("markov: m must be positive")
	}
	if smoothing < 0 {
		return nil, fmt.Errorf("markov: negative smoothing %g", smoothing)
	}
	p := mat.NewVector(m)
	n := 0
	for ti, traj := range trajs {
		if len(traj) == 0 {
			continue
		}
		s := traj[0]
		if s < 0 || s >= m {
			return nil, fmt.Errorf("markov: trajectory %d starts outside [0,%d)", ti, m)
		}
		p[s]++
		n++
	}
	if n == 0 && smoothing == 0 {
		return nil, fmt.Errorf("markov: no trajectories and no smoothing")
	}
	for i := range p {
		p[i] = (p[i] + smoothing) / (float64(n) + float64(smoothing*float64(m)))
	}
	return p, nil
}
