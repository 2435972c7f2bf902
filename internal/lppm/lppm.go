// Package lppm implements the location-privacy-preserving mechanisms the
// paper builds on: the planar Laplace mechanism of Geo-indistinguishability
// [Andrés et al., CCS 2013] discretised to a grid map (§IV-C), the
// δ-location-set mechanism of [Xiao & Xiong, CCS 2015] (§IV-D), and simple
// uniform/identity baselines. An LPPM is modelled, as in §II-A, as an
// emission matrix taking the user's true location as input and producing a
// perturbed location.
package lppm

import (
	"fmt"
	"math"

	"priste/internal/mat"
)

// Rand is the minimal random source the mechanisms draw from. Both
// math/rand.*Rand and math/rand/v2.*Rand satisfy it; durable sessions use
// a binary-marshalable PCG-backed implementation (core.SessionRNG) so a
// persisted session resumes with the exact candidate sequence an
// uninterrupted run would have drawn.
type Rand interface {
	// Float64 returns a uniform draw from [0,1).
	Float64() float64
}

// Perturber is the stateful mechanism interface the PriSTE release loop
// drives. A timestamp proceeds as: Begin(t); one or more Emission(alpha)
// calls as the framework calibrates the budget; Observe(t, obs) once a
// perturbed location is released.
type Perturber interface {
	// States returns the size m of the location domain.
	States() int
	// Begin prepares the mechanism for timestamp t (e.g. the δ-location
	// set advances its Markov prior). Timestamps must be visited in
	// order starting from 0.
	Begin(t int) error
	// Emission returns the row-stochastic emission matrix in effect at
	// the current timestamp for privacy budget alpha. The matrix is owned
	// by the mechanism and must not be mutated; it remains valid until
	// the next Emission or Begin call. Every entry must be finite and
	// non-negative — implementations validate at build time (see
	// ValidateEmission), which lets the release loop feed columns to the
	// quantifier's trusted entry points without a per-candidate O(m)
	// validation sweep.
	Emission(alpha float64) (*mat.Matrix, error)
	// Observe commits the released observation for the current timestamp
	// (posterior update for stateful mechanisms). col is the emission
	// column actually used for the release — col[i] = Pr(obs | u = s_i) —
	// which may come from a different matrix than the last Emission call
	// (the PriSTE framework falls back to a uniform release when the
	// budget underflows). col may be a caller-owned scratch buffer that
	// is overwritten after Observe returns (the framework's candidate
	// loop reuses one buffer per session); implementations must not
	// retain it and must copy what they need.
	Observe(t, obs int, col mat.Vector) error
}

// HistoryIndependent marks a Perturber whose behaviour does not depend on
// the release history: Begin and Observe are no-ops (the engine calls
// Observe when it folds a release into its operators, which for such a
// mechanism may be several timestamps late or never) and Emission is a pure
// function of the budget. Such a mechanism can be shared by every session
// of a compiled core.Plan (its Emission must then be safe for concurrent
// use), and its certified release verdicts are fully determined by the
// (budget, observation) history — the property the certified-release
// cache relies on. The δ-location-set mechanism is NOT history-independent
// (its prior advances on every Begin/Observe) and must stay per-session.
type HistoryIndependent interface {
	Perturber
	// HistoryIndependent is a marker; implementations do nothing.
	HistoryIndependent()
}

// SampleRow draws an observation from row u of an emission matrix.
func SampleRow(rng Rand, e *mat.Matrix, u int) (int, error) {
	if u < 0 || u >= e.Rows {
		return 0, fmt.Errorf("lppm: state %d outside [0,%d)", u, e.Rows)
	}
	row := e.Row(u)
	x := rng.Float64()
	var acc float64
	for j, p := range row {
		acc += p
		if x < acc {
			return j, nil
		}
	}
	for j := e.Cols - 1; j >= 0; j-- {
		if row[j] > 0 {
			return j, nil
		}
	}
	return 0, fmt.Errorf("lppm: emission row %d sums to zero", u)
}

// Uniform is the fully-uninformative mechanism: every row is uniform over
// the map regardless of budget. It is the α→0 limit the paper's
// convergence argument (§IV-C) relies on.
type Uniform struct {
	m int
	e *mat.Matrix
}

// NewUniform returns a uniform mechanism over m states.
func NewUniform(m int) (*Uniform, error) {
	if m <= 0 {
		return nil, fmt.Errorf("lppm: m must be positive")
	}
	e := mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		row := e.Row(i)
		for j := range row {
			row[j] = 1 / float64(m)
		}
	}
	return &Uniform{m: m, e: e}, nil
}

// States implements Perturber.
func (u *Uniform) States() int { return u.m }

// Begin implements Perturber.
func (u *Uniform) Begin(int) error { return nil }

// Emission implements Perturber.
func (u *Uniform) Emission(float64) (*mat.Matrix, error) { return u.e, nil }

// Observe implements Perturber.
func (u *Uniform) Observe(int, int, mat.Vector) error { return nil }

// HistoryIndependent marks the mechanism as history-independent.
func (u *Uniform) HistoryIndependent() {}

// Identity is the no-privacy mechanism: the true location is released
// verbatim. Useful as the upper baseline in utility experiments and as a
// worst case in privacy tests.
type Identity struct {
	m int
	e *mat.Matrix
}

// NewIdentity returns an identity mechanism over m states.
func NewIdentity(m int) (*Identity, error) {
	if m <= 0 {
		return nil, fmt.Errorf("lppm: m must be positive")
	}
	return &Identity{m: m, e: mat.Identity(m)}, nil
}

// States implements Perturber.
func (id *Identity) States() int { return id.m }

// Begin implements Perturber.
func (id *Identity) Begin(int) error { return nil }

// Emission implements Perturber.
func (id *Identity) Emission(float64) (*mat.Matrix, error) { return id.e, nil }

// Observe implements Perturber.
func (id *Identity) Observe(int, int, mat.Vector) error { return nil }

// HistoryIndependent marks the mechanism as history-independent.
func (id *Identity) HistoryIndependent() {}

// ValidateEmission checks the Perturber.Emission contract: every entry
// finite and non-negative. Mechanisms call it once when a matrix is
// materialised (the emission table's miss path, the δ-location-set
// rebuild), which is what entitles downstream consumers to the
// quantifier's trusted (sweep-free) Check/Commit entry points.
func ValidateEmission(e *mat.Matrix) error {
	for i, v := range e.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lppm: emission[%d,%d] = %g invalid", i/e.Cols, i%e.Cols, v)
		}
	}
	return nil
}

// clampFinite validates a strictly-positive finite parameter.
func clampFinite(name string, v float64) error {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("lppm: %s must be positive and finite, got %g", name, v)
	}
	return nil
}
