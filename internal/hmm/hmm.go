// Package hmm implements hidden-Markov-model inference — the
// forward–backward algorithm of §III-C [15] — over a Markov mobility chain
// and an LPPM emission model. It serves two roles: the δ-location-set
// mechanism's posterior update (Eq. 21) is a one-step filter, and the full
// smoother is the independent reference implementation the two-world
// quantifier is cross-checked against in tests.
package hmm

import (
	"fmt"
	"math"

	"priste/internal/markov"
	"priste/internal/mat"
)

// EmissionModel supplies the observation likelihood column
// p̃_o[i] = Pr(o_t = o | u_t = s_i) for a given observation. Emission
// matrices may differ across timestamps (§III-C), so the model receives the
// timestamp as well.
type EmissionModel interface {
	// EmissionColumn returns the likelihood vector for observation obs at
	// time t (0-based). The returned slice must not be mutated by callers
	// and must have length States().
	EmissionColumn(t, obs int) mat.Vector
	// States returns the size of the hidden state space.
	States() int
}

// MatrixEmission is a time-homogeneous EmissionModel backed by a row-
// stochastic emission matrix E[i][j] = Pr(o=j | u=i).
type MatrixEmission struct {
	e    *mat.Matrix
	cols []mat.Vector // cached columns
}

// NewMatrixEmission validates and wraps an emission matrix.
func NewMatrixEmission(e *mat.Matrix) (*MatrixEmission, error) {
	if e.Rows == 0 || e.Cols == 0 {
		return nil, fmt.Errorf("hmm: empty emission matrix")
	}
	for i := 0; i < e.Rows; i++ {
		row := e.Row(i)
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("hmm: emission row %d has invalid probability %g", i, v)
			}
		}
		if s := row.Sum(); math.Abs(s-1) > 1e-8 {
			return nil, fmt.Errorf("hmm: emission row %d sums to %g", i, s)
		}
	}
	me := &MatrixEmission{e: e.Clone()}
	me.cols = make([]mat.Vector, e.Cols)
	for j := 0; j < e.Cols; j++ {
		me.cols[j] = me.e.Col(j)
	}
	return me, nil
}

// MustNewMatrixEmission is NewMatrixEmission that panics on error.
func MustNewMatrixEmission(e *mat.Matrix) *MatrixEmission {
	m, err := NewMatrixEmission(e)
	if err != nil {
		panic(err)
	}
	return m
}

// EmissionColumn implements EmissionModel.
func (m *MatrixEmission) EmissionColumn(_, obs int) mat.Vector {
	if obs < 0 || obs >= len(m.cols) {
		panic(fmt.Sprintf("hmm: observation %d outside [0,%d)", obs, len(m.cols)))
	}
	return m.cols[obs]
}

// States implements EmissionModel.
func (m *MatrixEmission) States() int { return m.e.Rows }

// Model bundles a mobility chain, an initial distribution and an emission
// model.
type Model struct {
	Chain   *markov.Chain
	Initial mat.Vector
	Emit    EmissionModel
}

// NewModel validates dimensions and returns a Model.
func NewModel(c *markov.Chain, pi mat.Vector, emit EmissionModel) (*Model, error) {
	if c.States() != len(pi) {
		return nil, fmt.Errorf("hmm: chain has %d states, initial has %d", c.States(), len(pi))
	}
	if emit.States() != c.States() {
		return nil, fmt.Errorf("hmm: chain has %d states, emission has %d", c.States(), emit.States())
	}
	if !pi.IsDistribution(1e-8) {
		return nil, fmt.Errorf("hmm: initial vector is not a distribution")
	}
	return &Model{Chain: c, Initial: pi.Clone(), Emit: emit}, nil
}

// Forward runs the scaled forward pass (Eq. 10). It returns, for each
// timestamp, the normalised forward vector α̂_t (the filtering distribution
// Pr(u_t | o_1..t)) and the log-likelihood log Pr(o_1..o_T).
func (m *Model) Forward(obs []int) (alphas []mat.Vector, logLik float64, err error) {
	n := len(obs)
	if n == 0 {
		return nil, 0, fmt.Errorf("hmm: no observations")
	}
	states := m.Chain.States()
	alphas = make([]mat.Vector, n)
	cur := mat.NewVector(states)
	e0 := m.Emit.EmissionColumn(0, obs[0])
	m.Initial.HadamardInto(cur, e0)
	c0 := cur.Normalize()
	if c0 == 0 {
		return nil, 0, fmt.Errorf("hmm: observation at t=0 has zero likelihood")
	}
	logLik = math.Log(c0)
	alphas[0] = cur.Clone()
	next := mat.NewVector(states)
	for t := 1; t < n; t++ {
		m.Chain.StepInto(next, cur)
		et := m.Emit.EmissionColumn(t, obs[t])
		next.HadamardInto(next, et)
		ct := next.Normalize()
		if ct == 0 {
			return nil, 0, fmt.Errorf("hmm: observation at t=%d has zero likelihood", t)
		}
		logLik += math.Log(ct)
		alphas[t] = next.Clone()
		cur, next = next, cur
	}
	return alphas, logLik, nil
}

// Backward runs the scaled backward pass (Eq. 11) and returns the
// per-timestamp backward vectors, normalised so each sums to the state
// count (the conventional scaled form). betas[T-1] is all ones.
func (m *Model) Backward(obs []int) ([]mat.Vector, error) {
	n := len(obs)
	if n == 0 {
		return nil, fmt.Errorf("hmm: no observations")
	}
	states := m.Chain.States()
	betas := make([]mat.Vector, n)
	cur := mat.Ones(states)
	betas[n-1] = cur.Clone()
	tmp := mat.NewVector(states)
	tr := m.Chain.Matrix()
	for t := n - 2; t >= 0; t-- {
		et1 := m.Emit.EmissionColumn(t+1, obs[t+1])
		cur.HadamardInto(tmp, et1)
		// β_t = M·(e_{t+1} ∘ β_{t+1})
		next := tr.MulVec(tmp)
		s := next.Sum()
		if s <= 0 {
			return nil, fmt.Errorf("hmm: backward pass degenerated at t=%d", t)
		}
		next.Scale(float64(states) / s)
		betas[t] = next
		cur = next
	}
	return betas, nil
}

// Smooth returns the smoothing distributions Pr(u_t | o_1..o_T) for all t
// (Eq. 12).
func (m *Model) Smooth(obs []int) ([]mat.Vector, error) {
	alphas, _, err := m.Forward(obs)
	if err != nil {
		return nil, err
	}
	betas, err := m.Backward(obs)
	if err != nil {
		return nil, err
	}
	out := make([]mat.Vector, len(obs))
	for t := range obs {
		g := alphas[t].Hadamard(betas[t])
		if g.Normalize() == 0 {
			return nil, fmt.Errorf("hmm: zero smoothing mass at t=%d", t)
		}
		out[t] = g
	}
	return out, nil
}

// LogLikelihood returns log Pr(o_1..o_T) under the model.
func (m *Model) LogLikelihood(obs []int) (float64, error) {
	_, ll, err := m.Forward(obs)
	return ll, err
}

// Viterbi returns a most-likely hidden state sequence for the observations
// (in log space). Provided for completeness of the substrate; PriSTE itself
// only needs filtering/smoothing, but attack-simulation examples use it.
func (m *Model) Viterbi(obs []int) ([]int, float64, error) {
	n := len(obs)
	if n == 0 {
		return nil, 0, fmt.Errorf("hmm: no observations")
	}
	states := m.Chain.States()
	logTr := make([][]float64, states)
	for i := 0; i < states; i++ {
		logTr[i] = make([]float64, states)
		for j := 0; j < states; j++ {
			logTr[i][j] = safeLog(m.Chain.Prob(i, j))
		}
	}
	delta := make([]float64, states)
	e0 := m.Emit.EmissionColumn(0, obs[0])
	for i := 0; i < states; i++ {
		delta[i] = safeLog(m.Initial[i]) + safeLog(e0[i])
	}
	back := make([][]int32, n)
	next := make([]float64, states)
	for t := 1; t < n; t++ {
		back[t] = make([]int32, states)
		et := m.Emit.EmissionColumn(t, obs[t])
		for j := 0; j < states; j++ {
			best, bi := math.Inf(-1), 0
			for i := 0; i < states; i++ {
				if v := delta[i] + logTr[i][j]; v > best {
					best, bi = v, i
				}
			}
			next[j] = best + safeLog(et[j])
			back[t][j] = int32(bi)
		}
		delta, next = next, delta
	}
	best, bi := math.Inf(-1), 0
	for i, v := range delta {
		if v > best {
			best, bi = v, i
		}
	}
	if math.IsInf(best, -1) {
		return nil, best, fmt.Errorf("hmm: all paths have zero probability")
	}
	path := make([]int, n)
	path[n-1] = bi
	for t := n - 1; t > 0; t-- {
		path[t-1] = int(back[t][path[t]])
	}
	return path, best, nil
}

func safeLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}
