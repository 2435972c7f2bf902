package qp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"priste/internal/mat"
)

// bruteMax approximates the true simplex maximum by enumerating all
// compositions of `steps` into n parts (a dense grid on the simplex).
func bruteMax(p Problem, steps int) float64 {
	n := len(p.A)
	pi := make(mat.Vector, n)
	best := math.Inf(-1)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == n-1 {
			pi[i] = float64(left) / float64(steps)
			if v := p.Eval(pi); v > best {
				best = v
			}
			return
		}
		for k := 0; k <= left; k++ {
			pi[i] = float64(k) / float64(steps)
			rec(i+1, left-k)
		}
	}
	rec(0, steps)
	return best
}

func solveOK(t *testing.T, p Problem, opt Options) Result {
	t.Helper()
	r, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidate(t *testing.T) {
	if err := (Problem{}).Validate(); err == nil {
		t.Error("empty problem accepted")
	}
	if err := (Problem{A: mat.Vector{1}, W: mat.Vector{1, 2}, Q: mat.Vector{1}}).Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := (Problem{A: mat.Vector{-1}, W: mat.Vector{1}, Q: mat.Vector{1}}).Validate(); err == nil {
		t.Error("negative A accepted")
	}
	if err := (Problem{A: mat.Vector{1}, W: mat.Vector{math.NaN()}, Q: mat.Vector{1}}).Validate(); err == nil {
		t.Error("NaN W accepted")
	}
	if err := (Problem{A: mat.Vector{1}, W: mat.Vector{1}, Q: mat.Vector{1}}).Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestSolveAllNegativeIsSatisfied(t *testing.T) {
	// g = (πa)(πw) + qπ with w, q ≤ 0 and a ≥ 0: max is 0 at π = 0.
	p := Problem{
		A: mat.Vector{0.5, 0.3, 0.8},
		W: mat.Vector{-1, -2, -0.5},
		Q: mat.Vector{-0.1, 0, -0.3},
	}
	r := solveOK(t, p, Options{})
	if r.Verdict != Satisfied {
		t.Fatalf("verdict = %v, upper = %v", r.Verdict, r.Upper)
	}
	if r.Upper > 1e-9 {
		t.Fatalf("upper = %v", r.Upper)
	}
}

func TestSolvePositiveLinearIsViolated(t *testing.T) {
	p := Problem{
		A: mat.Vector{0.1, 0.1},
		W: mat.Vector{0, 0},
		Q: mat.Vector{1, 0},
	}
	r := solveOK(t, p, Options{})
	if r.Verdict != Violated {
		t.Fatalf("verdict = %v", r.Verdict)
	}
	if r.Lower < 1-1e-9 {
		t.Fatalf("lower = %v, want ≥ 1", r.Lower)
	}
	if p.Eval(r.BestPi()) != r.Lower {
		t.Fatalf("BestPi does not reproduce Lower")
	}
}

func TestSolveQuadraticViolation(t *testing.T) {
	// (πa)(πw) with a = w = 1: value is identically 1 on the simplex.
	p := Problem{
		A: mat.Vector{1, 1},
		W: mat.Vector{1, 1},
		Q: mat.Vector{0, 0},
	}
	r := solveOK(t, p, Options{})
	if r.Verdict != Violated {
		t.Fatalf("verdict = %v", r.Verdict)
	}
	if math.Abs(r.Lower-1) > 1e-6 {
		t.Fatalf("max = %v, want 1", r.Lower)
	}
}

func TestSolveIndefiniteInterior(t *testing.T) {
	// Mixed-sign w: the max may be interior in the s dimension.
	p := Problem{
		A: mat.Vector{1, 0.5, 0.2},
		W: mat.Vector{2, -3, 1},
		Q: mat.Vector{-0.2, 0.4, -0.1},
	}
	r := solveOK(t, p, Options{})
	want := bruteMax(p, 60)
	if r.Upper < want-1e-6 {
		t.Fatalf("upper %v below brute-force max %v", r.Upper, want)
	}
	if r.Lower < want-0.02 {
		t.Fatalf("lower %v misses brute-force max %v", r.Lower, want)
	}
	if r.Verdict != Violated && want > 1e-6 {
		t.Fatalf("verdict = %v with positive max %v", r.Verdict, want)
	}
}

func TestSolveSatisfiedGapCloses(t *testing.T) {
	// A strictly-negative instance: the solver must certify satisfaction.
	p := Problem{
		A: mat.Vector{1, 0.5, 0.2},
		W: mat.Vector{2, -3, 1},
		Q: mat.Vector{-3, -3, -3},
	}
	r := solveOK(t, p, Options{})
	if r.Verdict != Satisfied {
		t.Fatalf("verdict = %v bounds [%v,%v]", r.Verdict, r.Lower, r.Upper)
	}
	want := bruteMax(p, 60)
	if r.Upper < want-1e-6 {
		t.Fatalf("upper %v below brute max %v", r.Upper, want)
	}
}

func TestSolveBoundsSandwichBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		p := Problem{A: make(mat.Vector, n), W: make(mat.Vector, n), Q: make(mat.Vector, n)}
		for i := 0; i < n; i++ {
			p.A[i] = rng.Float64()
			p.W[i] = rng.NormFloat64()
			p.Q[i] = rng.NormFloat64() * 0.5
		}
		r, err := Solve(p, Options{})
		if err != nil {
			return false
		}
		grid := bruteMax(p, 30)
		// Certified upper bound must dominate the grid estimate; the lower
		// bound must be attainable (checked by re-evaluating BestPi).
		if r.Upper < grid-1e-7 {
			return false
		}
		if r.BestPi() != nil && math.Abs(p.Eval(r.BestPi())-r.Lower) > 1e-9 {
			return false
		}
		return r.Lower <= r.Upper+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDeadlineReturnsQuickly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200
	p := Problem{A: make(mat.Vector, n), W: make(mat.Vector, n), Q: make(mat.Vector, n)}
	for i := 0; i < n; i++ {
		p.A[i] = rng.Float64()
		p.W[i] = rng.NormFloat64()
		p.Q[i] = rng.NormFloat64() - 5 // no vertex violates
	}
	start := time.Now()
	r := solveOK(t, p, Options{Deadline: time.Millisecond})
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("solver ignored deadline, took %v", e)
	}
	if r.Lower > r.Upper {
		t.Fatalf("bounds inverted: [%v, %v]", r.Lower, r.Upper)
	}
	// A deadline that has passed before the edge pass starts leaves the
	// best vertex and certifies nothing.
	r = solveOK(t, p, Options{Deadline: time.Nanosecond})
	if r.Verdict != Unknown || !math.IsInf(r.Upper, 1) || p.Eval(r.BestPi()) != r.Lower {
		t.Fatalf("expired deadline: %v in [%v, %v]", r.Verdict, r.Lower, r.Upper)
	}
}

func TestSolveZeroAIsLinear(t *testing.T) {
	p := Problem{
		A: mat.Vector{0, 0},
		W: mat.Vector{5, -5},
		Q: mat.Vector{-1, 2},
	}
	r := solveOK(t, p, Options{})
	if r.Verdict != Violated || math.Abs(r.Lower-2) > 1e-9 {
		t.Fatalf("lower = %v verdict %v, want 2 violated", r.Lower, r.Verdict)
	}
}

// onSimplex reports whether π is a distribution with at most two non-zero
// coordinates, which is all the scan ever returns.
func onSimplex(pi mat.Vector) bool {
	nz := 0
	for _, x := range pi {
		if x < 0 {
			return false
		}
		if x != 0 {
			nz++
		}
	}
	return nz >= 1 && nz <= 2 && math.Abs(pi.Sum()-1) <= 1e-15
}

// TestSolveDominatesSimplexGrid: no point of a grid over the whole simplex
// — interiors of every face included, n up to 7, magnitudes from 1e-3 to
// 1e3, entries of A tied — beats the maximum the scan found on the edges,
// and the scan's π attains exactly what it reports.
func TestSolveDominatesSimplexGrid(t *testing.T) {
	steps := []int{0, 1, 400, 120, 40, 24, 16, 12} // by n: ≤ 20 000 grid points
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		p := Problem{A: make(mat.Vector, n), W: make(mat.Vector, n), Q: make(mat.Vector, n)}
		for i := 0; i < n; i++ {
			p.A[i] = rng.Float64()
			if seed%4 == 0 {
				p.A[i] = float64(rng.Intn(3)) / 2
			}
			p.W[i] = rng.NormFloat64() * scale
			p.Q[i] = rng.NormFloat64() * 0.3 * scale
		}
		r := solveOK(t, p, Options{})
		if r.Upper != r.Lower || p.Eval(r.BestPi()) != r.Lower || !onSimplex(r.BestPi()) {
			t.Fatalf("seed %d: [%v, %v] at %v, g = %v", seed, r.Lower, r.Upper, r.BestPi(), p.Eval(r.BestPi()))
		}
		if grid := bruteMax(p, steps[n]); grid > r.Upper+1e-12*scale {
			t.Fatalf("seed %d: a grid point reaches %v, the scan stopped at %v", seed, grid, r.Upper)
		}
	}
}

// TestSolveEdgeCases: the shapes the edge argument has to survive.
func TestSolveEdgeCases(t *testing.T) {
	for name, c := range map[string]struct {
		p    Problem
		want float64
	}{
		"one state": {Problem{A: mat.Vector{0.3}, W: mat.Vector{-2}, Q: mat.Vector{0.1}}, 0.3*-2 + 0.1},
		// a constant: g = 0.4·(π·w) + q·π is linear, its maximum a vertex.
		"all a equal": {Problem{A: mat.Vector{0.4, 0.4, 0.4}, W: mat.Vector{1, -1, 3}, Q: mat.Vector{0, 2, -1}}, 0.4*-1 + 2},
		// the tied pair (0, 1) is a linear edge; on (0, 2) g = λ(1−λ).
		"ties in a": {Problem{A: mat.Vector{0, 0, 1}, W: mat.Vector{1, 1, 0}, Q: mat.Vector{0, 0, 0}}, 0.25},
		"w zero":    {Problem{A: mat.Vector{0.2, 0.9, 0.5}, W: mat.Vector{0, 0, 0}, Q: mat.Vector{-1, -3, -2}}, -1},
		// Δa·Δw underflows to a subnormal and the edge passes the interior
		// test with a λ* that is a ratio of subnormals: the point is still
		// on the edge and its value still an end's.
		"subnormal curvature": {Problem{A: mat.Vector{0, 1e-160}, W: mat.Vector{1e-160, 0}, Q: mat.Vector{-1, -1}}, -1},
		// g = λ(1−λ) peaks at ¼ between two vertices worth 0.
		"interior peak": {Problem{A: mat.Vector{0, 1}, W: mat.Vector{1, 0}, Q: mat.Vector{0, 0}}, 0.25},
	} {
		r := solveOK(t, c.p, Options{})
		if r.Lower != c.want || r.Upper != c.want || c.p.Eval(r.BestPi()) != c.want || !onSimplex(r.BestPi()) {
			t.Errorf("%s: [%v, %v] at %v, want %v", name, r.Lower, r.Upper, r.BestPi(), c.want)
		}
	}
}

// TestCheckReleaseExtremeMagnitudes: b̃ and c̃ whose entries span 600
// decades within one check. The rescale flushes the small ones to zero or
// into the subnormals, and the decision is still the reference's.
func TestCheckReleaseExtremeMagnitudes(t *testing.T) {
	var accepted, rejected int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		chk := ReleaseCheck{ATilde: make(mat.Vector, n), BTilde: make(mat.Vector, n), CTilde: make(mat.Vector, n), Epsilon: 0.1 + 3*rng.Float64()}
		for i := 0; i < n; i++ {
			chk.ATilde[i] = rng.Float64()
			chk.CTilde[i] = (0.5 + rng.Float64()) * math.Pow(10, float64(rng.Intn(601)-300))
			chk.BTilde[i] = chk.CTilde[i] * chk.ATilde[i] * (0.9 + 0.2*rng.Float64())
		}
		got, err := CheckRelease(chk, ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refCheckRelease(chk, ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Conservative {
			continue // the reference ran out of nodes
		}
		if got.OK != want.OK || got.Conservative || (got.Eq15.BestPi() != nil && !inBracket(got.Eq15, want.Eq15)) ||
			(got.Eq16.BestPi() != nil && !inBracket(got.Eq16, want.Eq16)) {
			t.Fatalf("seed %d: %+v, reference %+v", seed, got, want)
		}
		if got.OK {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 20 || rejected < 20 {
		t.Fatalf("%d accepted, %d rejected: one side untested", accepted, rejected)
	}
}

// TestCheckReleaseViolationIsAttained: a check that returns at the first
// violation — at a vertex or on an edge, of either condition — hands back a
// π that really violates, and an expired deadline is never an acceptance.
func TestCheckReleaseViolationIsAttained(t *testing.T) {
	var atVertex, onEdge int
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		chk := ReleaseCheck{ATilde: make(mat.Vector, n), BTilde: make(mat.Vector, n), CTilde: make(mat.Vector, n), Epsilon: 0.2 + rng.Float64()}
		for i := 0; i < n; i++ {
			chk.ATilde[i] = rng.Float64()
			chk.CTilde[i] = 0.5 + rng.Float64()
			// b̃ᵢ/c̃ᵢ within a few percent of ãᵢ: close enough to
			// uninformative that violations, when there are any, are small
			// and often sit inside an edge.
			chk.BTilde[i] = chk.CTilde[i] * chk.ATilde[i] * (1 + 0.08*rng.NormFloat64()*chk.Epsilon)
		}
		dec, err := CheckRelease(chk, ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p15, p16 := Conditions(chk)
		for k, r := range []Result{dec.Eq15, dec.Eq16} {
			if r.Verdict != Violated {
				continue
			}
			p := []Problem{p15, p16}[k]
			if v := p.Eval(r.BestPi()); v != r.Lower || !(v > 1e-9) || !onSimplex(r.BestPi()) || !math.IsInf(r.Upper, 1) {
				t.Fatalf("seed %d Eq.%d: violation %v in [%v, %v] at %v", seed, 15+k, v, r.Lower, r.Upper, r.BestPi())
			}
			if r.BestPi().Max() == 1 {
				atVertex++
			} else {
				onEdge++
			}
		}
		late, err := CheckRelease(chk, ReleaseOptions{Deadline: time.Nanosecond})
		if err != nil || late.OK || (late.Conservative == (late.Eq15.Verdict == Violated || late.Eq16.Verdict == Violated)) {
			t.Fatalf("seed %d: 1 ns deadline gave %+v (err %v)", seed, late, err)
		}
	}
	if atVertex < 20 || onEdge < 20 {
		t.Fatalf("%d vertex violations, %d edge violations: one side untested", atVertex, onEdge)
	}
}

// The LP relaxation and the one-variable quadratic step belong to the
// branch-and-bound in reference_test.go; the tests below keep that oracle
// honest.

func TestSimplexLPBasic(t *testing.T) {
	c := mat.Vector{3, 2, -1}
	a := mat.Vector{0.2, 0.5, 0.9}
	// Unconstrained simplex optimum is the best vertex: e_0 with value 3,
	// feasible when its a (0.2) lies in the interval.
	v, pi, ok := refSimplexLP(c, a, 0.1, 0.9)
	if !ok || math.Abs(v-3) > 1e-12 {
		t.Fatalf("v = %v ok = %v", v, ok)
	}
	if pi[0] != 1 {
		t.Fatalf("pi = %v", pi)
	}
	// Force s ≥ 0.4: best is the mixture of vertices 0 and 1 on the hull
	// at s = 0.4 — value interpolates between (0.2,3) and (0.5,2).
	v, pi, ok = refSimplexLP(c, a, 0.4, 0.9)
	if !ok {
		t.Fatal("infeasible")
	}
	lam := (0.5 - 0.4) / (0.5 - 0.2)
	want := lam*3 + (1-lam)*2
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("v = %v want %v (pi=%v)", v, want, pi)
	}
	if math.Abs(pi.Dot(a)-0.4) > 1e-12 || math.Abs(pi.Sum()-1) > 1e-12 {
		t.Fatalf("pi infeasible: %v", pi)
	}
	// Interval outside [min a, max a] is infeasible.
	if _, _, ok = refSimplexLP(c, a, 1.5, 2); ok {
		t.Fatal("infeasible interval accepted")
	}
	if _, _, ok = refSimplexLP(c, a, -1, 0.1); ok {
		t.Fatal("interval below min a accepted")
	}
}

func TestSimplexLPEqualA(t *testing.T) {
	// All a equal: hull collapses to one point carrying the best c.
	c := mat.Vector{-1, 5, 2}
	a := mat.Vector{0.3, 0.3, 0.3}
	v, pi, ok := refSimplexLP(c, a, 0.3, 0.3)
	if !ok || v != 5 || pi[1] != 1 {
		t.Fatalf("v = %v pi = %v ok = %v", v, pi, ok)
	}
}

// Property: simplexLP result is feasible and dominates random feasible
// points on the simplex slice.
func TestSimplexLPOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		c := make(mat.Vector, n)
		a := make(mat.Vector, n)
		for i := 0; i < n; i++ {
			c[i] = rng.NormFloat64()
			a[i] = rng.Float64()
		}
		lo, hi := a.Min(), a.Max()
		sl := lo + rng.Float64()*(hi-lo)
		sh := sl + rng.Float64()*(hi-sl)
		v, pi, ok := refSimplexLP(c, a, sl, sh)
		if !ok {
			return false
		}
		s := pi.Dot(a)
		if s < sl-1e-9 || s > sh+1e-9 || math.Abs(pi.Sum()-1) > 1e-9 || pi.Min() < -1e-12 {
			return false
		}
		// Random simplex points inside the slice must not beat the LP.
		for trial := 0; trial < 300; trial++ {
			x := make(mat.Vector, n)
			for i := range x {
				x[i] = rng.ExpFloat64()
			}
			x.Normalize()
			xs := x.Dot(a)
			if xs < sl || xs > sh {
				continue
			}
			if c.Dot(x) > v+1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBestQuadOnInterval(t *testing.T) {
	// Concave with interior max at 0.5: -x² + x on [-1, 1].
	if x := refBestQuadOnInterval(-1, 1, -1, 1); math.Abs(x-0.5) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
	// Convex: best endpoint. x² + x on [-1, 1] → max at 1 (value 2).
	if x := refBestQuadOnInterval(1, 1, -1, 1); x != 1 {
		t.Fatalf("x = %v", x)
	}
	// Decreasing linear on [-0.5, 1]: max at -0.5.
	if x := refBestQuadOnInterval(0, -1, -0.5, 1); x != -0.5 {
		t.Fatalf("x = %v", x)
	}
	// No gain: returns 0.
	if x := refBestQuadOnInterval(-1, 0, -0.5, 0.5); x != 0 {
		t.Fatalf("x = %v", x)
	}
}

func TestCheckReleaseValidation(t *testing.T) {
	ok3 := mat.Vector{0.1, 0.2, 0.3}
	if _, err := CheckRelease(ReleaseCheck{ATilde: ok3, BTilde: mat.Vector{1}, CTilde: ok3, Epsilon: 1}, ReleaseOptions{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CheckRelease(ReleaseCheck{ATilde: ok3, BTilde: ok3, CTilde: ok3, Epsilon: 0}, ReleaseOptions{}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := CheckRelease(ReleaseCheck{ATilde: ok3, BTilde: ok3, CTilde: ok3, Epsilon: math.Inf(1)}, ReleaseOptions{}); err == nil {
		t.Error("infinite epsilon accepted")
	}
}

// TestCheckReleaseValidatesInOnePass: the single pass that lays out the
// conditions rejects exactly the inputs that validating both derived
// problems separately (Problem.Validate, as decide once did) rejects, with
// the same error. An impossible observation (b̃ = c̃ = 0) is accepted
// before anything is validated, as it always was.
func TestCheckReleaseValidatesInOnePass(t *testing.T) {
	separately := func(chk ReleaseCheck) error {
		scale := math.Max(chk.BTilde.AbsMax(), chk.CTilde.AbsMax())
		if scale == 0 {
			return nil
		}
		cond, _ := releaseConditions(chk, scale, math.Exp(chk.Epsilon), make(mat.Vector, 4*len(chk.ATilde)))
		for k, name := range [2]string{"Eq.15", "Eq.16"} {
			if err := (Problem{A: cond[k].a, W: cond[k].w, Q: cond[k].q}).Validate(); err != nil {
				return fmt.Errorf("qp: %s solve: %w", name, err)
			}
		}
		return nil
	}
	nan, inf := math.NaN(), math.Inf(1)
	a, b, c := mat.Vector{0.1, 0.2, 0.3}, mat.Vector{0.05, 0.1, 0.2}, mat.Vector{0.5, 0.6, 0.7}
	with := func(v mat.Vector, i int, x float64) mat.Vector {
		v = v.Clone()
		v[i] = x
		return v
	}
	for _, tc := range []struct {
		name    string
		chk     ReleaseCheck
		rejects bool
	}{
		{"valid", ReleaseCheck{a, b, c, 1}, false},
		{"ã has -0", ReleaseCheck{with(a, 1, math.Copysign(0, -1)), b, c, 1}, false},
		{"ã negative", ReleaseCheck{with(a, 1, -0.1), b, c, 1}, true},
		{"ã NaN", ReleaseCheck{with(a, 2, nan), b, c, 1}, true},
		{"ã +Inf", ReleaseCheck{with(a, 0, inf), b, c, 1}, true},
		{"ã -Inf", ReleaseCheck{with(a, 0, -inf), b, c, 1}, true},
		{"b̃ NaN", ReleaseCheck{a, with(b, 1, nan), c, 1}, true},
		{"b̃ +Inf", ReleaseCheck{a, with(b, 2, inf), c, 1}, true},
		{"c̃ -Inf", ReleaseCheck{a, b, with(c, 0, -inf), 1}, true},
		{"c̃ NaN", ReleaseCheck{a, b, with(c, 1, nan), 1}, true},
		{"e^ε overflows", ReleaseCheck{a, b, c, 800}, true},
		{"e^ε finite, w overflows", ReleaseCheck{a, with(b, 0, -1), with(c, 0, 1), 709.7}, true},
		{"large finite ε", ReleaseCheck{a, b, c, 700}, false},
		{"impossible observation, ã NaN", ReleaseCheck{with(a, 0, nan), mat.Vector{0, 0, 0}, mat.Vector{0, 0, 0}, 1}, false},
	} {
		want := separately(tc.chk)
		if (want != nil) != tc.rejects {
			t.Fatalf("%s: separate validation gave %v, the table says rejects=%v", tc.name, want, tc.rejects)
		}
		_, err := CheckRelease(tc.chk, ReleaseOptions{})
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Errorf("%s: CheckRelease error %v, separate validation %v", tc.name, err, want)
		}
	}
}

func TestCheckReleaseUninformativeObservationPasses(t *testing.T) {
	// b̃ = Pr(E|u0=i)·k, c̃ = k: observation independent of state ⇒ no
	// information disclosed ⇒ any ε certifiable.
	a := mat.Vector{0.3, 0.5, 0.2}
	k := 0.01
	b := a.Clone().Scale(k)
	c := mat.Vector{k, k, k}
	dec, err := CheckRelease(ReleaseCheck{ATilde: a, BTilde: b, CTilde: c, Epsilon: 0.1}, ReleaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.OK {
		t.Fatalf("uninformative release rejected: eq15=%+v eq16=%+v", dec.Eq15, dec.Eq16)
	}
}

func TestCheckReleaseRevealingObservationFails(t *testing.T) {
	// Observation perfectly correlated with the event: for π
	// concentrated near state 0 the ratio explodes, so a small ε must be
	// rejected via a Violated verdict.
	a := mat.Vector{0.9, 0.1}
	b := mat.Vector{0.9 * 0.99, 0.1 * 0.01} // Pr(E,o|u0): o strongly signals E
	c := mat.Vector{0.9*0.99 + 0.1*0.3, 0.1*0.01 + 0.9*0.001}
	_ = c
	// Construct c̃ as b̃ + small not-E mass so that Pr(o|¬E) is tiny.
	c2 := mat.Vector{b[0] + 0.001*(1-a[0]), b[1] + 0.001*(1-a[1])}
	dec, err := CheckRelease(ReleaseCheck{ATilde: a, BTilde: b, CTilde: c2, Epsilon: 0.5}, ReleaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.OK {
		t.Fatal("strongly revealing observation accepted")
	}
	if dec.Conservative {
		t.Fatal("expected a hard violation, not a budget timeout")
	}
}

// TestCheckReleaseSkipsTheOtherCondition: a violation settles the release,
// and the condition left undecided must say so — not pass for Satisfied
// (the zero Verdict) nor for Unknown (a spent budget, which is never
// cached) — whichever of the two is the violated one.
func TestCheckReleaseSkipsTheOtherCondition(t *testing.T) {
	a := mat.Vector{0.9, 0.1}
	b := mat.Vector{0.9 * 0.99, 0.1 * 0.01}
	signalsEvent := ReleaseCheck{ATilde: a, BTilde: b, Epsilon: 0.5,
		CTilde: mat.Vector{b[0] + 0.001*(1-a[0]), b[1] + 0.001*(1-a[1])}}
	// The mirror image: the observation all but rules the event out.
	signalsAbsence := ReleaseCheck{ATilde: a, Epsilon: 0.5,
		BTilde: mat.Vector{0.001 * a[0], 0.001 * a[1]},
		CTilde: mat.Vector{0.001*a[0] + 0.99*(1-a[0]), 0.001*a[1] + 0.01*(1-a[1])}}
	for name, c := range map[string]struct {
		chk        ReleaseCheck
		eq15, eq16 Verdict
	}{
		"eq15 violated": {signalsEvent, Violated, Skipped},
		"eq16 violated": {signalsAbsence, Skipped, Violated},
	} {
		dec, err := CheckRelease(c.chk, ReleaseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if dec.OK || dec.Conservative || dec.Eq15.Verdict != c.eq15 || dec.Eq16.Verdict != c.eq16 {
			t.Errorf("%s: OK %v conservative %v eq15 %v eq16 %v", name, dec.OK, dec.Conservative, dec.Eq15.Verdict, dec.Eq16.Verdict)
		}
		for _, r := range []Result{dec.Eq15, dec.Eq16} {
			if r.Verdict == Violated && (r.BestPi() == nil || !(r.Lower > 1e-9) || r.Lower > r.Upper) {
				t.Errorf("%s: violation without its witness: %+v", name, r)
			}
		}
	}
}

func TestCheckReleaseZeroScaleTrivial(t *testing.T) {
	a := mat.Vector{0.5, 0.5}
	z := mat.Vector{0, 0}
	dec, err := CheckRelease(ReleaseCheck{ATilde: a, BTilde: z, CTilde: z, Epsilon: 1}, ReleaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.OK {
		t.Fatal("impossible observation should be trivially safe")
	}
}

func TestCheckReleaseScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := make(mat.Vector, n)
		b := make(mat.Vector, n)
		c := make(mat.Vector, n)
		for i := 0; i < n; i++ {
			a[i] = rng.Float64()
			c[i] = rng.Float64()
			b[i] = c[i] * rng.Float64() * a[i] // joint ≤ marginal heuristic
		}
		chk := ReleaseCheck{ATilde: a, BTilde: b, CTilde: c, Epsilon: 0.5 + rng.Float64()}
		d1, err1 := CheckRelease(chk, ReleaseOptions{})
		scaled := ReleaseCheck{
			ATilde:  a,
			BTilde:  b.Clone().Scale(1e-80),
			CTilde:  c.Clone().Scale(1e-80),
			Epsilon: chk.Epsilon,
		}
		d2, err2 := CheckRelease(scaled, ReleaseOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		return d1.OK == d2.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPiLoss(t *testing.T) {
	a := mat.Vector{0.5, 0.1}
	b := mat.Vector{0.05, 0.02}
	c := mat.Vector{0.2, 0.3}
	pi := mat.Vector{0.5, 0.5}
	loss, err := FixedPiLoss(ReleaseCheck{ATilde: a, BTilde: b, CTilde: c, Epsilon: 1}, pi)
	if err != nil {
		t.Fatal(err)
	}
	pe := 0.3
	pj := 0.035
	pob := 0.25
	want := math.Abs(math.Log((pj / pe) / ((pob - pj) / (1 - pe))))
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v want %v", loss, want)
	}
}

func TestFixedPiLossErrors(t *testing.T) {
	chk := ReleaseCheck{
		ATilde: mat.Vector{1, 1}, // prior 1 under any distribution pi
		BTilde: mat.Vector{0.1, 0.1},
		CTilde: mat.Vector{0.2, 0.2},
	}
	if _, err := FixedPiLoss(chk, mat.Vector{0.5, 0.5}); err == nil {
		t.Error("degenerate prior accepted")
	}
	if _, err := FixedPiLoss(chk, mat.Vector{0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	chk2 := ReleaseCheck{ATilde: mat.Vector{0.5, 0.5}, BTilde: mat.Vector{0, 0}, CTilde: mat.Vector{0, 0}}
	if _, err := FixedPiLoss(chk2, mat.Vector{0.5, 0.5}); err == nil {
		t.Error("zero observation probability accepted")
	}
}

func TestVerdictString(t *testing.T) {
	if Satisfied.String() != "satisfied" || Violated.String() != "violated" || Unknown.String() != "unknown" || Skipped.String() != "skipped" {
		t.Error("verdict strings wrong")
	}
	if Verdict(9).String() == "" {
		t.Error("unknown verdict should still render")
	}
}
