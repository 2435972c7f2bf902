package qp

import (
	"fmt"
	"math"
	"time"

	"priste/internal/mat"
)

// ReleaseCheck bundles the two Theorem IV.1 conditions for one candidate
// perturbed location. With ã, b̃, c̃ the first-m projections of the
// vectors of Eqs. (17)–(20),
//
//	Eq. 15 ⇔ max_π (π·ã)(π·w₁) + π·b̃      ≤ 0, w₁ = (e^ε−1)·b̃ − e^ε·c̃
//	Eq. 16 ⇔ max_π (π·ã)(π·w₂) − e^ε·(π·b̃) ≤ 0, w₂ = (e^ε−1)·b̃ + c̃
//
// (the expansion uses π·1 = 1, so the maximum is taken over the simplex
// Δ = {π ≥ 0, Σπᵢ = 1} of genuine distributions; see the package comment).
type ReleaseCheck struct {
	// ATilde is ã: ãᵢ = Pr(EVENT | u₀ = sᵢ).
	ATilde mat.Vector
	// BTilde is b̃: b̃ᵢ ∝ Pr(EVENT, o₀..o_t | u₀ = sᵢ).
	BTilde mat.Vector
	// CTilde is c̃: c̃ᵢ ∝ Pr(o₀..o_t | u₀ = sᵢ). BTilde and CTilde must
	// share a scale; their common normalisation is irrelevant because both
	// conditions are homogeneous of degree one in (b̃, c̃).
	CTilde mat.Vector
	// Epsilon is the ε of ε-spatiotemporal event privacy.
	Epsilon float64
}

// ReleaseOptions tunes the two condition solves.
type ReleaseOptions struct {
	// Solver options applied to each condition. Tol is interpreted
	// relative to the scale of the normalised problem.
	Solver Options
	// Deadline is the total budget across both conditions (the paper's
	// conservative-release threshold); zero means unlimited. A smaller
	// Solver.Deadline takes its place.
	Deadline time.Duration
}

// ReleaseDecision is the outcome of checking both conditions.
type ReleaseDecision struct {
	OK bool // both conditions certified to hold
	// Eq15 and Eq16 are the individual solver results. A violation of one
	// condition settles the release, so the other is then left Skipped
	// unless its scan had already ended.
	Eq15, Eq16 Result
	// Conservative is true when OK is false only because a verdict was
	// Unknown (the deadline passed), not because a violation was found.
	Conservative bool
}

// CheckRelease decides whether releasing the candidate observation
// preserves ε-spatiotemporal event privacy for every initial probability in
// the simplex Δ. Following the paper's conservative release, OK is true
// only when both maxima are certified non-positive.
func CheckRelease(chk ReleaseCheck, opt ReleaseOptions) (ReleaseDecision, error) {
	start := time.Now()
	n := len(chk.ATilde)
	if len(chk.BTilde) != n || len(chk.CTilde) != n {
		return ReleaseDecision{}, fmt.Errorf("qp: release check length mismatch a=%d b=%d c=%d",
			n, len(chk.BTilde), len(chk.CTilde))
	}
	if chk.Epsilon <= 0 || math.IsNaN(chk.Epsilon) || math.IsInf(chk.Epsilon, 0) {
		return ReleaseDecision{}, fmt.Errorf("qp: epsilon must be positive and finite, got %g", chk.Epsilon)
	}
	// Joint rescale of (b̃, c̃) for numerical health; the conditions are
	// invariant under this scaling.
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	if scale == 0 {
		// Observations impossible under every starting state: nothing is
		// disclosed, release trivially safe.
		return ReleaseDecision{OK: true}, nil
	}

	budget := opt.Deadline
	if d := opt.Solver.Deadline; d > 0 && (budget <= 0 || d < budget) {
		budget = d
	}

	buf := scratch.Get().(*mat.Vector)
	if cap(*buf) < 4*n {
		*buf = make(mat.Vector, 4*n)
	}
	cond, ok := releaseConditions(chk, scale, math.Exp(chk.Epsilon), (*buf)[:4*n])
	if !ok {
		// Rare: name the offending entry as Problem.Validate does.
		for k, name := range [2]string{"Eq.15", "Eq.16"} {
			if err := (Problem{A: cond[k].a, W: cond[k].w, Q: cond[k].q}).Validate(); err != nil {
				scratch.Put(buf)
				return ReleaseDecision{}, fmt.Errorf("qp: %s solve: %w", name, err)
			}
		}
	}
	dec := decide(&cond, opt.Solver.withDefaults().Tol, start, deadlineAfter(start, budget))
	scratch.Put(buf)
	return dec, nil
}

// decide runs the staged scans of both conditions. A violation of either
// condition rejects the release whatever the other one holds, and most
// rejected candidates are violated at a vertex, so the conditions advance
// together — the vertex pass of each, then the edge pass of each — and
// decide returns at the first value past tol. Only a release about to be
// accepted pays for two full scans. Each scan finds what it would have
// found alone (its passes share nothing with the other's), so OK and
// Conservative are those of two solves run to the end. The conditions
// must be valid problems (releaseConditions checks them).
func decide(cond *[2]scan, tol float64, start, deadline time.Time) ReleaseDecision {
	res := [2]Result{{Verdict: Skipped}, {Verdict: Skipped}}
	prev := start
	for pass := 0; pass < 2; pass++ {
		for k := range cond {
			s := &cond[k]
			if pass == 0 {
				s.vertices()
			} else {
				s.edges(tol, deadline)
			}
			now := time.Now()
			s.elapsed += now.Sub(prev)
			prev = now
			violated := s.best > tol
			if violated || pass == 1 {
				res[k] = s.result(tol)
			}
			if violated {
				// Certified violation: the release is rejected, not
				// conservatively, and the other condition, unless its
				// scan has already ended, stays Skipped.
				return ReleaseDecision{Eq15: res[0], Eq16: res[1]}
			}
		}
	}
	dec := ReleaseDecision{OK: true, Eq15: res[0], Eq16: res[1]}
	for _, r := range res {
		dec.OK = dec.OK && r.Verdict == Satisfied && r.Upper <= tol
	}
	// Without OK and without a violation, the deadline cut a scan short.
	dec.Conservative = !dec.OK && res[0].Verdict != Violated && res[1].Verdict != Violated
	return dec
}

// releaseConditions lays the normalised linear data of the two Theorem
// IV.1 conditions out in lin (4n floats) and returns their scans:
// b̂ = b̃/scale, ĉ = c̃/scale, and
//
//	Eq. 15: w₁ = (e^ε−1)·b̂ − e^ε·ĉ, q₁ = b̂
//	Eq. 16: w₂ = (e^ε−1)·b̂ + ĉ,    q₂ = −e^ε·b̂
//
// ok reports, from the same pass, what Problem.Validate would of both:
// ã non-negative and finite, w and q finite — which also catches an e^ε
// that overflows. x−x is 0 for a finite x and NaN otherwise, so one sum
// of them tells whether any entry was not finite.
func releaseConditions(chk ReleaseCheck, scale, eEps float64, lin mat.Vector) (cond [2]scan, ok bool) {
	n := len(chk.ATilde)
	w1, q1, w2, q2 := lin[:n:n], lin[n:2*n:2*n], lin[2*n:3*n:3*n], lin[3*n:]
	inv := 1 / scale
	ok = true
	var nonFinite float64
	for i := 0; i < n; i++ {
		a := chk.ATilde[i]
		if !(a >= 0) {
			ok = false
		}
		b, c := float64(chk.BTilde[i]*inv), float64(chk.CTilde[i]*inv)
		w1[i] = float64((eEps-1)*b) - float64(eEps*c)
		q1[i] = b
		w2[i] = float64((eEps-1)*b) + c
		q2[i] = float64(-eEps * b) // rounded before the sum below: no fused x·y−z
		nonFinite += (a - a) + (w1[i] - w1[i]) + (q1[i] - q1[i]) + (w2[i] - w2[i]) + (q2[i] - q2[i])
	}
	cond = [2]scan{{a: chk.ATilde, w: w1, q: q1}, {a: chk.ATilde, w: w2, q: q2}}
	return cond, ok && nonFinite == 0
}

// FixedPiLoss returns the realised privacy loss for a *known* initial
// probability π: the larger of the two log-ratios
//
//	ln Pr(o|EVENT)/Pr(o|¬EVENT)  and  ln Pr(o|¬EVENT)/Pr(o|EVENT).
//
// It reports an error when the event has prior 0 or 1 under π (the
// conditional ratio is undefined) or the observations are impossible.
func FixedPiLoss(chk ReleaseCheck, pi mat.Vector) (float64, error) {
	n := len(chk.ATilde)
	if len(pi) != n {
		return 0, fmt.Errorf("qp: pi length %d want %d", len(pi), n)
	}
	pe := pi.Dot(chk.ATilde)
	pj := pi.Dot(chk.BTilde)  // ∝ Pr(EVENT, o)
	pob := pi.Dot(chk.CTilde) // ∝ Pr(o)
	// An (almost) certain or impossible event has no deniability to lose;
	// the conditional ratio is undefined. The tolerance absorbs the
	// floating-point residue of priors that are exactly 0 or 1.
	const degenerate = 1e-9
	if pe <= degenerate || 1-pe <= degenerate {
		return 0, fmt.Errorf("qp: event prior %g degenerate under pi", pe)
	}
	if pob <= 0 {
		return 0, fmt.Errorf("qp: observations have zero probability under pi")
	}
	condE := pj / pe
	condNE := (pob - pj) / (1 - pe)
	if condE <= 0 && condNE <= 0 {
		return 0, fmt.Errorf("qp: degenerate conditionals")
	}
	if condE <= 0 || condNE <= 0 {
		return math.Inf(1), nil
	}
	r := math.Log(condE / condNE)
	return math.Abs(r), nil
}
