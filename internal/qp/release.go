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
// (the expansion uses π·1 = 1, and maximising over the box 0 ≤ π ≤ 1 is the
// paper's conservative relaxation of the set of genuine distributions).
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
// the box. Following the paper's conservative release, OK is true only when
// both maxima are certified non-positive.
func CheckRelease(chk ReleaseCheck, opt ReleaseOptions) (ReleaseDecision, error) {
	dec, _, err := checkRelease(chk, 0, opt)
	return dec, err
}

// CheckReleaseShadow is CheckRelease over *approximate* (b̃, c̃) — the
// float32 shadow check path — with certified error margins. chk's
// BTilde/CTilde may differ from the exact float64 vectors by a common
// positive scale (which cancels: both conditions are homogeneous in
// (b̃, c̃)) plus a per-component absolute error of at most eta relative
// to the vectors' maximum (world.ShadowEta for the engine's shadow
// pipeline). ATilde and Epsilon must be exact.
//
// The decision margin: after the joint rescale both |b̂ᵢ|, |ĉᵢ| ≤ 1, so
// the shadow-vs-exact perturbation of each normalised component is at
// most etaN = 2·eta (the normalisation scale is itself a shadow
// quantity). Over the simplex π·v ≤ max vᵢ for the linear parts and
// π·ã ≤ max ãᵢ for the quadratic factor, so the objective error is
// bounded by
//
//	Δ₁ = maxA·(2e^ε−1)·etaN + etaN        (Eq. 15)
//	Δ₂ = e^ε·(maxA + 1)·etaN              (Eq. 16)
//
// A condition is *decided satisfied* when the solver certifies
// Upper ≤ Tol − Δ, and *decided violated* when it finds
// Lower > Tol + Δ: in both cases the exact objective provably lands on
// the same side of Tol, so the decision matches what CheckRelease on
// the exact vectors would certify. decided is false when the margins
// cannot settle both conditions — the caller must recompute with the
// exact float64 path. Commit-side state is untouched either way, so
// release sequences stay bit-identical to the exact path.
func CheckReleaseShadow(chk ReleaseCheck, eta float64, opt ReleaseOptions) (ReleaseDecision, bool, error) {
	if eta <= 0 || eta >= 1e-3 {
		return ReleaseDecision{}, false, fmt.Errorf("qp: implausible shadow eta %g", eta)
	}
	return checkRelease(chk, eta, opt)
}

// checkRelease is the one release check: exact with eta = 0, where every
// margin below vanishes, shadow otherwise. A violation of either condition
// rejects the release whatever the other one holds, and most rejected
// candidates are violated at a vertex, so the conditions advance together —
// the vertex pass of each, then the edge pass of each — and the check
// returns at the first value past Tol + Δ. Only a release about to be
// accepted pays for two full scans. Each scan finds what it would have
// found alone (its passes share nothing with the other's), so OK and
// Conservative are those of two solves run to the end.
func checkRelease(chk ReleaseCheck, eta float64, opt ReleaseOptions) (dec ReleaseDecision, decided bool, err error) {
	start := time.Now()
	n := len(chk.ATilde)
	if len(chk.BTilde) != n || len(chk.CTilde) != n {
		return dec, false, fmt.Errorf("qp: release check length mismatch a=%d b=%d c=%d",
			n, len(chk.BTilde), len(chk.CTilde))
	}
	if chk.Epsilon <= 0 || math.IsNaN(chk.Epsilon) || math.IsInf(chk.Epsilon, 0) {
		return dec, false, fmt.Errorf("qp: epsilon must be positive and finite, got %g", chk.Epsilon)
	}
	// Joint rescale of (b̃, c̃) for numerical health; the conditions are
	// invariant under this scaling.
	scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
	if scale == 0 {
		// Observations impossible under every starting state: nothing is
		// disclosed, release trivially safe. Collapsed shadow vectors say
		// nothing about the exact ones, so only the exact path may certify
		// it.
		dec.OK = eta == 0
		return dec, dec.OK, nil
	}

	// Shadow margins Δ₁, Δ₂ (see CheckReleaseShadow); zero when exact.
	maxA, eEps, etaN := chk.ATilde.AbsMax(), math.Exp(chk.Epsilon), 2*eta
	margin := [2]float64{float64(maxA*(2*eEps-1)*etaN) + etaN, eEps * (maxA + 1) * etaN}

	budget := opt.Deadline
	if d := opt.Solver.Deadline; d > 0 && (budget <= 0 || d < budget) {
		budget = d
	}

	buf := scratch.Get().(*mat.Vector)
	if cap(*buf) < 4*n {
		*buf = make(mat.Vector, 4*n)
	}
	cond := releaseConditions(chk, scale, eEps, (*buf)[:4*n])
	dec, decided, err = decide(&cond, opt.Solver.withDefaults().Tol, margin, start, deadlineAfter(start, budget))
	scratch.Put(buf)
	return dec, decided, err
}

// decide runs the staged scans of both conditions.
func decide(cond *[2]scan, tol float64, margin [2]float64, start, deadline time.Time) (dec ReleaseDecision, decided bool, err error) {
	for k, name := range [2]string{"Eq.15", "Eq.16"} {
		if err := (Problem{A: cond[k].a, W: cond[k].w, Q: cond[k].q}).Validate(); err != nil {
			return dec, false, fmt.Errorf("qp: %s solve: %w", name, err)
		}
	}
	res := [2]Result{{Verdict: Skipped}, {Verdict: Skipped}}
	prev := start
	for pass := 0; pass < 2; pass++ {
		for k := range cond {
			s := &cond[k]
			if pass == 0 {
				s.vertices()
			} else {
				s.edges(tol+margin[k], deadline)
			}
			now := time.Now()
			s.elapsed += now.Sub(prev)
			prev = now
			violated := s.best > tol+margin[k]
			if violated || pass == 1 {
				res[k] = s.result(tol)
			}
			if violated {
				// Certified violation: the release is rejected, not
				// conservatively, and the other condition, unless its
				// scan has already ended, stays Skipped.
				return ReleaseDecision{Eq15: res[0], Eq16: res[1]}, true, nil
			}
		}
	}
	dec = ReleaseDecision{OK: true, Eq15: res[0], Eq16: res[1]}
	for k, r := range res {
		dec.OK = dec.OK && r.Verdict == Satisfied && r.Upper <= tol-margin[k]
	}
	// Without OK: the deadline passed on the exact path, or margins too
	// tight to certify either way on the shadow path, which must then be
	// recomputed exactly.
	dec.Conservative = !dec.OK && res[0].Verdict != Violated && res[1].Verdict != Violated
	return dec, dec.OK, nil
}

// releaseConditions lays the normalised linear data of the two Theorem
// IV.1 conditions out in lin (4n floats) and returns their scans:
// b̂ = b̃/scale, ĉ = c̃/scale, and
//
//	Eq. 15: w₁ = (e^ε−1)·b̂ − e^ε·ĉ, q₁ = b̂
//	Eq. 16: w₂ = (e^ε−1)·b̂ + ĉ,    q₂ = −e^ε·b̂
func releaseConditions(chk ReleaseCheck, scale, eEps float64, lin mat.Vector) [2]scan {
	n := len(chk.ATilde)
	w1, q1, w2, q2 := lin[:n:n], lin[n:2*n:2*n], lin[2*n:3*n:3*n], lin[3*n:]
	inv := 1 / scale
	for i := 0; i < n; i++ {
		b, c := float64(chk.BTilde[i]*inv), float64(chk.CTilde[i]*inv)
		w1[i] = float64((eEps-1)*b) - float64(eEps*c)
		q1[i] = b
		w2[i] = float64((eEps-1)*b) + c
		q2[i] = -eEps * b
	}
	return [2]scan{{a: chk.ATilde, w: w1, q: q1}, {a: chk.ATilde, w: w2, q: q2}}
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
