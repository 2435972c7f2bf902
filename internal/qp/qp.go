// Package qp decides the release conditions of Theorem IV.1. The paper
// delegates this to IBM CPLEX; this package is the from-scratch substitute.
//
// Both conditions (Eqs. 15 and 16) ask whether a quadratic function of the
// unknown initial probability π can be positive anywhere over the set of
// probability distributions. The PriSTE quadratic matrix is the rank-one
// product ã·wᵀ (projected to the first m coordinates), so the objective
// always has the form
//
//	g(π) = (π·a)(π·w) + q·π ,   a ≥ 0,  π ∈ Δ = {π ≥ 0, Σπᵢ = 1}.
//
// The paper's statement of the constraints lists only 0 ≤ πᵢ ≤ 1, but its
// derivation of Eqs. (15)/(16) from Definition II.4 uses π·1 = 1, and its
// claim that a fully-uninformative mechanism (α = 0) always satisfies the
// conditions holds only on the simplex — so Δ is the correct feasible set
// and the one implemented here.
//
// The maximum sits on an edge. Let π* maximise g over Δ and put s = π*·a.
// On the slice {π ∈ Δ, π·a = s} the objective is the linear function
// (s·w + q)·π; the slice is a polytope cut out of the non-negative orthant
// by two equations, so its vertices have at most two non-zero coordinates,
// and a linear function is largest at a vertex. That vertex lies in Δ and
// is as good as π*. General indefinite QP is NP-hard [Pardalos & Vavasis
// 1991] and the paper gives CPLEX a time budget for it; this one is the
// largest of n(n−1)/2 one-variable quadratics. Along the edge from eᵢ to
// eⱼ, π = (1−λ)·eᵢ + λ·eⱼ, with Δa = aⱼ−aᵢ, Δw = wⱼ−wᵢ, Δq = qⱼ−qᵢ,
//
//	g(λ) = vᵢ + B·λ + A·λ²,   vᵢ = aᵢwᵢ + qᵢ,  A = Δa·Δw,  B = aᵢ·Δw + wᵢ·Δa + Δq,
//
// which peaks strictly inside the edge exactly when A < 0 and 0 < B < −2A,
// at λ* = B/(−2A). Every other edge — convex (A > 0), linear (A = 0, which
// covers every pair tied in a or in w), or with its stationary point
// outside (0, 1) — is highest at one of its ends. So the search is two
// passes with no tree, no relaxation and no budget: the n vertices, then
// the edges that peak inside. When both have run the largest value seen is
// the maximum, Lower = Upper, and the verdict is Satisfied or Violated.
//
// Rounding. CheckRelease scales (b̃, c̃) so that |b̂ᵢ|, |ĉᵢ| ≤ 1; with
// a ∈ [0, 1] that makes |wᵢ| < 2e^ε and |qᵢ| ≤ e^ε. The value kept for a
// point is g evaluated there as Problem.Eval evaluates it, a dozen
// operations on numbers of that size, so it is within some 20 ulp·e^ε
// ≈ 4e-15·e^ε of the true g. The tests on A and B are made in floating
// point as well, but the peak of an edge rises at most B/2 above eᵢ (and,
// seen from the other side, at most (−2A−B)/2 above eⱼ), so an edge they
// misjudge peaks within the rounding error of B of an end the vertex pass
// has seen. Both errors are five orders of magnitude under Tol = 1e-9,
// the slack the conditions are certified with.
//
// Cost. An edge takes two subtractions, a multiplication and a comparison
// to dismiss and some twenty operations when it peaks inside, so a release
// that is accepted — both conditions scanned to the end — costs n(n−1)
// edge tests: about n² multiply-adds, next to the 7n² of the seven
// matrix–vector products world.Quantifier.CheckTrusted spends on b̃ and c̃
// and the 2n³ of a commit. CheckRelease screens before it certifies: a
// violation of either condition rejects the release, so it runs the vertex
// pass of both conditions (O(n)), then the edge pass of each, and returns
// at the first value past Tol, leaving the other condition Skipped.
//
// The paper's conservative release (§IV-C) — release only when the solver
// is sure before a time threshold — survives as Options.Deadline: the edge
// pass reads the clock before its first row and every pollRows rows after,
// and a pass cut short certifies nothing (Upper = +Inf, verdict Unknown
// unless a violation was already in hand). Nothing else yields Unknown.
//
// reference_test.go keeps the branch-and-bound this package used before,
// as the oracle the scan is tested against.
package qp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"priste/internal/mat"
)

// Problem is: maximize (π·A)(π·W) + Q·π subject to π in the probability
// simplex. A must be elementwise non-negative.
type Problem struct {
	A, W, Q mat.Vector
}

// Validate checks dimensions and the sign restriction on A.
func (p Problem) Validate() error {
	n := len(p.A)
	if n == 0 {
		return fmt.Errorf("qp: empty problem")
	}
	if len(p.W) != n || len(p.Q) != n {
		return fmt.Errorf("qp: length mismatch A=%d W=%d Q=%d", n, len(p.W), len(p.Q))
	}
	for i, v := range p.A {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qp: A[%d] = %g must be finite and non-negative", i, v)
		}
	}
	for i := range p.W {
		if math.IsNaN(p.W[i]) || math.IsInf(p.W[i], 0) || math.IsNaN(p.Q[i]) || math.IsInf(p.Q[i], 0) {
			return fmt.Errorf("qp: W/Q contain non-finite values at %d", i)
		}
	}
	return nil
}

// Eval returns the objective value at π.
func (p Problem) Eval(pi mat.Vector) float64 {
	return pi.Dot(p.A)*pi.Dot(p.W) + pi.Dot(p.Q)
}

// Verdict classifies the outcome of a bound check.
type Verdict int

const (
	// Satisfied means the scan ran to its end and max g(π) ≤ Tol.
	Satisfied Verdict = iota
	// Violated means a π with g(π) > Tol was found.
	Violated
	// Unknown means Options.Deadline passed before the scan ended and no
	// violation had been found. Nothing else produces it.
	Unknown
	// Skipped means the scan was not run, or not to its end, because
	// the other condition of the same release check was found violated.
	// It certifies nothing about its own condition; the decision that
	// carries it is a certified rejection.
	Skipped
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Satisfied:
		return "satisfied"
	case Violated:
		return "violated"
	case Unknown:
		return "unknown"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options tunes the solver.
type Options struct {
	// Tol is the positivity threshold: values ≤ Tol count as "not a
	// violation". Should be a small positive number scaled to the
	// problem's magnitude. Default 1e-9.
	Tol float64
	// Deadline, if non-zero, aborts the search when exceeded, returning
	// Unknown (the paper's conservative-release time threshold).
	Deadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Result reports the solver's conclusion and certificates.
type Result struct {
	Verdict Verdict
	// Lower is the best objective value found (a certified lower bound on
	// the maximum); BestPi attains it: Problem.Eval(BestPi) == Lower.
	Lower  float64
	BestPi mat.Vector
	// Upper is a certified upper bound on the maximum: Lower when the
	// search ran to its end, +Inf when it stopped early.
	Upper float64
	// Elapsed is the wall time spent.
	Elapsed time.Duration
}

// pollRows is how many rows of the edge pass run between two looks at the
// clock when a deadline is set: a few microseconds at the paper's largest
// map, against thresholds of 50 µs and up.
const pollRows = 16

// scan is the search for the maximum of one condition. Its passes —
// vertices, then edges — run in that order; what they find does not depend
// on what happens between them, so CheckRelease can interleave the passes
// of its two conditions.
type scan struct {
	a, w, q mat.Vector

	// best is the largest value found, at (1−lam)·eᵢ + lam·eⱼ with i < j,
	// or at the vertex eᵢ when j == i (lam is then 0).
	best float64
	i, j int
	lam  float64
	// complete is set once every vertex and edge has been looked at, which
	// makes best the maximum.
	complete bool

	elapsed time.Duration
}

// vertices finds the best vertex: g(eᵢ) = aᵢwᵢ + qᵢ.
func (s *scan) vertices() {
	s.best = math.Inf(-1)
	for i, ai := range s.a {
		if v := ai*s.w[i] + s.q[i]; v > s.best {
			s.best, s.i, s.j = v, i, i
		}
	}
}

// edges looks at every edge that peaks strictly inside and keeps the best
// point. It returns early, leaving complete unset, at the first value past
// stop or when the deadline (if set) has passed.
func (s *scan) edges(stop float64, deadline time.Time) {
	a, w, q := s.a, s.w, s.q
	for i, ai := range a {
		if i%pollRows == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		wi, qi := w[i], q[i]
		aj := a[i+1:]
		wj, qj := w[i+1:][:len(aj)], q[i+1:][:len(aj)]
		for k, ajk := range aj {
			da, dw := ajk-ai, wj[k]-wi
			qa := da * dw
			if !(qa < 0) {
				continue
			}
			qb := ai*dw + wi*da + (qj[k] - qi)
			if !(qb > 0 && qb < -2*qa) {
				continue
			}
			lam, j := qb/(-2*qa), i+1+k
			if v := s.at(i, j, lam); v > s.best {
				s.best, s.i, s.j, s.lam = v, i, j, lam
				if v > stop {
					return
				}
			}
		}
	}
	s.complete = true
}

// at returns g((1−lam)·eᵢ + lam·eⱼ), i < j, term for term as Problem.Eval
// sums it over the dense vector, whose other terms are exact zeros.
func (s *scan) at(i, j int, lam float64) float64 {
	pi, pj := 1-lam, lam
	return (pi*s.a[i]+pj*s.a[j])*(pi*s.w[i]+pj*s.w[j]) + (pi*s.q[i] + pj*s.q[j])
}

// result reports where the scan stands. Until the edge pass has run to its
// end nothing bounds the maximum from above.
func (s *scan) result(tol float64) Result {
	r := Result{Lower: s.best, Upper: math.Inf(1), BestPi: make(mat.Vector, len(s.a)), Elapsed: s.elapsed}
	r.BestPi[s.i] = 1 - s.lam
	r.BestPi[s.j] += s.lam // a vertex has j == i and lam == 0
	if s.complete {
		r.Upper = s.best
	}
	switch {
	case r.Lower > tol:
		r.Verdict = Violated
	case r.Upper <= tol:
		r.Verdict = Satisfied
	default:
		r.Verdict = Unknown
	}
	return r
}

// Solve maximises the problem over the simplex and classifies the result
// against opt.Tol.
func Solve(p Problem, opt Options) (Result, error) {
	start := time.Now()
	opt = opt.withDefaults()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	s := scan{a: p.A, w: p.W, q: p.Q}
	s.vertices()
	s.edges(math.Inf(1), deadlineAfter(start, opt.Deadline))
	r := s.result(opt.Tol)
	r.Elapsed = time.Since(start)
	return r, nil
}

// deadlineAfter returns start + budget, or the zero time (no deadline)
// without a budget.
func deadlineAfter(start time.Time, budget time.Duration) time.Time {
	if budget <= 0 {
		return time.Time{}
	}
	return start.Add(budget)
}

// scratch pools the 4n floats a release check lays w₁, q₁, w₂, q₂ out in,
// so a check allocates only the BestPi vectors it returns.
var scratch = sync.Pool{New: func() any { return new(mat.Vector) }}
