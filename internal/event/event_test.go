package event

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

func TestExprEvalFig1Cases(t *testing.T) {
	// Fig. 1 cases on a 2-timestamp trajectory over states {s0, s1, s2}.
	// (a) (u0=s0) ∧ (u0=s1): always false — can't be in two places at once.
	a := And(Pred(0, 0), Pred(0, 1))
	// (b) (u0=s0) ∨ (u0=s1): sensitive area at time 0.
	b := Or(Pred(0, 0), Pred(0, 1))
	// (c) (u0=s0) ∧ (u1=s0): trajectory s0 -> s0.
	c := And(Pred(0, 0), Pred(1, 0))
	// (d) (u0=s0) ∨ (u1=s0).
	d := Or(Pred(0, 0), Pred(1, 0))
	// (e) ((u0=s0)∨(u0=s1)) ∧ ((u1=s0)∨(u1=s1)).
	e := And(Or(Pred(0, 0), Pred(0, 1)), Or(Pred(1, 0), Pred(1, 1)))
	// (f) ((u0=s0)∨(u0=s1)) ∨ ((u1=s0)∨(u1=s1)).
	f := Or(Or(Pred(0, 0), Pred(0, 1)), Or(Pred(1, 0), Pred(1, 1)))

	cases := []struct {
		name string
		e    *Expr
		traj []int
		want bool
	}{
		{"a-imposs", a, []int{0, 0}, false},
		{"a-imposs2", a, []int{1, 1}, false},
		{"b-in", b, []int{1, 2}, true},
		{"b-out", b, []int{2, 0}, false},
		{"c-hit", c, []int{0, 0}, true},
		{"c-miss", c, []int{0, 1}, false},
		{"d-first", d, []int{0, 2}, true},
		{"d-second", d, []int{2, 0}, true},
		{"d-none", d, []int{2, 2}, false},
		{"e-hit", e, []int{0, 1}, true},
		{"e-miss", e, []int{0, 2}, false},
		{"f-any", f, []int{2, 1}, true},
		{"f-none", f, []int{2, 2}, false},
	}
	for _, tc := range cases {
		if got := tc.e.Eval(tc.traj); got != tc.want {
			t.Errorf("%s: Eval(%v) = %v, want %v", tc.name, tc.traj, got, tc.want)
		}
	}
}

func TestExprNot(t *testing.T) {
	e := not(Pred(0, 1))
	if !e.Eval([]int{0}) || e.Eval([]int{1}) {
		t.Fatal("Not evaluation wrong")
	}
}

func TestExprEvalOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pred(3, 0).Eval([]int{0, 1})
}

func TestExprConstructorsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"And-empty": func() { And() },
		"Or-nil":    func() { Or(nil) },
		"Not-nil":   func() { not(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExprSingleChildCollapse(t *testing.T) {
	p := Pred(1, 2)
	if And(p) != p || Or(p) != p {
		t.Fatal("single-child And/Or should return the child")
	}
}

func TestExprMetadata(t *testing.T) {
	e := And(Or(Pred(2, 1), Pred(5, 0)), Pred(3, 4))
	if e.MaxTime() != 5 {
		t.Errorf("MaxTime = %d", e.MaxTime())
	}
	s := e.String()
	if !strings.Contains(s, "∧") || !strings.Contains(s, "∨") || !strings.Contains(s, "(u2=s1)") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(not(Pred(0, 0)).String(), "¬") {
		t.Error("Not rendering missing ¬")
	}
}

func TestPresenceBasics(t *testing.T) {
	r := grid.MustRegionOf(5, 1, 2)
	p := MustNewPresence(r, 2, 4)
	if p.States() != 5 || p.Width() != 2 {
		t.Fatalf("metadata wrong: %v %v", p.States(), p.Width())
	}
	if s, e := p.Window(); s != 2 || e != 4 {
		t.Fatalf("Window = %d,%d", s, e)
	}
	if !p.Sticky() {
		t.Error("PRESENCE must be sticky")
	}
	if !p.Truth([]int{0, 0, 1, 0, 0}) {
		t.Error("visit at t=2 should be true")
	}
	if p.Truth([]int{1, 1, 0, 3, 4}) {
		t.Error("no in-window visit should be false")
	}
	if !strings.Contains(p.String(), "PRESENCE") {
		t.Errorf("String = %q", p.String())
	}
}

func TestPresenceValidation(t *testing.T) {
	if _, err := NewPresence(grid.NewRegion(3), 0, 1); err == nil {
		t.Error("empty region accepted")
	}
	r := grid.MustRegionOf(3, 0)
	if _, err := NewPresence(r, -1, 2); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewPresence(r, 3, 2); err == nil {
		t.Error("end < start accepted")
	}
}

func TestPresenceExprMatchesTruth(t *testing.T) {
	r := grid.MustRegionOf(3, 0, 2)
	p := MustNewPresence(r, 1, 2)
	e := p.Expr()
	for _, traj := range [][]int{{0, 0, 0}, {1, 1, 1}, {1, 2, 1}, {1, 1, 0}, {2, 1, 1}} {
		if e.Eval(traj) != p.Truth(traj) {
			t.Errorf("mismatch on %v", traj)
		}
	}
}

func TestPresenceRegionAt(t *testing.T) {
	p := MustNewPresence(grid.MustRegionOf(3, 0), 1, 2)
	if p.RegionAt(1) != p.Region {
		t.Error("RegionAt should return the region")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic outside window")
		}
	}()
	p.RegionAt(0)
}

func TestPatternBasics(t *testing.T) {
	// Example II.2: regions {s0,s1} at t=1 and {s1,s2} at t=2.
	r1 := grid.MustRegionOf(3, 0, 1)
	r2 := grid.MustRegionOf(3, 1, 2)
	p := MustNewPattern([]*grid.Region{r1, r2}, 1)
	if s, e := p.Window(); s != 1 || e != 2 {
		t.Fatalf("Window = %d,%d", s, e)
	}
	if p.Sticky() {
		t.Error("PATTERN must not be sticky")
	}
	if p.Width() != 2 || p.Length() != 2 {
		t.Fatalf("Width/Length = %d/%d", p.Width(), p.Length())
	}
	if !p.Truth([]int{2, 0, 2}) {
		t.Error("trajectory through both regions should satisfy")
	}
	if p.Truth([]int{2, 2, 2}) {
		t.Error("missing first region should fail")
	}
	if p.Truth([]int{2, 0, 0}) {
		t.Error("missing second region should fail")
	}
	if p.trajectoryCount() != 4 {
		t.Errorf("TrajectoryCount = %d", p.trajectoryCount())
	}
	if !strings.Contains(p.String(), "PATTERN") {
		t.Errorf("String = %q", p.String())
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := NewPattern(nil, 0); err == nil {
		t.Error("empty regions accepted")
	}
	r := grid.MustRegionOf(3, 0)
	if _, err := NewPattern([]*grid.Region{r}, -1); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewPattern([]*grid.Region{r, grid.NewRegion(3)}, 0); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := NewPattern([]*grid.Region{r, grid.MustRegionOf(4, 0)}, 0); err == nil {
		t.Error("mismatched state space accepted")
	}
}

func TestPatternExprMatchesTruthProperty(t *testing.T) {
	r1 := grid.MustRegionOf(3, 0, 1)
	r2 := grid.MustRegionOf(3, 1, 2)
	p := MustNewPattern([]*grid.Region{r1, r2}, 1)
	e := p.Expr()
	f := func(a, b, c uint8) bool {
		traj := []int{int(a % 3), int(b % 3), int(c % 3)}
		return e.Eval(traj) == p.Truth(traj)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func chain3() *markov.Chain {
	return markov.MustNewChain(mat.FromRows([][]float64{
		{0.1, 0.2, 0.7},
		{0.4, 0.1, 0.5},
		{0, 0.1, 0.9},
	}))
}

func TestNaivePriorSimplePredicate(t *testing.T) {
	// Pr(u1 = s2) starting uniform = (pi·M)[2].
	c := chain3()
	pi := markov.Uniform(3)
	got, err := NaivePrior(c, pi, Pred(1, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Step(pi)[2]
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("prior = %v want %v", got, want)
	}
}

func TestNaivePriorComplementProperty(t *testing.T) {
	c := chain3()
	pi := markov.Uniform(3)
	e := Or(Pred(1, 0), And(Pred(0, 2), Pred(2, 1)))
	p, err := NaivePrior(c, pi, e, 3)
	if err != nil {
		t.Fatal(err)
	}
	np, err := NaivePrior(c, pi, not(e), 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p+np-1) > 1e-12 {
		t.Fatalf("Pr(E)+Pr(¬E) = %v", p+np)
	}
}

func TestNaivePriorErrors(t *testing.T) {
	c := chain3()
	if _, err := NaivePrior(c, markov.Uniform(3), nil, 2); err == nil {
		t.Error("nil expr accepted")
	}
	if _, err := NaivePrior(c, markov.Uniform(3), Pred(5, 0), 3); err == nil {
		t.Error("horizon not covering expr accepted")
	}
	if _, err := NaivePrior(c, markov.Uniform(2), Pred(0, 0), 1); err == nil {
		t.Error("mismatched pi accepted")
	}
	if _, err := NaivePrior(c, mat.Vector{1, 1, 1}, Pred(0, 0), 1); err == nil {
		t.Error("non-distribution pi accepted")
	}
}

func uniformEmission(m int) func(t, o, s int) float64 {
	return func(_, _, _ int) float64 { return 1 / float64(m) }
}

func TestNaiveJointWithUniformEmissionIsScaledPrior(t *testing.T) {
	// With a state-independent emission, Pr(E, o) = Pr(E)·∏Pr(o_t).
	c := chain3()
	pi := markov.Uniform(3)
	e := Or(Pred(1, 0), Pred(2, 2))
	prior, _ := NaivePrior(c, pi, e, 3)
	joint, err := NaiveJoint(c, pi, e, []int{0, 1, 2}, uniformEmission(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := prior / 27
	if math.Abs(joint-want) > 1e-14 {
		t.Fatalf("joint = %v want %v", joint, want)
	}
}

func TestNaiveJointErrors(t *testing.T) {
	c := chain3()
	pi := markov.Uniform(3)
	if _, err := NaiveJoint(c, pi, Pred(0, 0), []int{0, 1}, nil, 2); err == nil {
		t.Error("nil emission accepted")
	}
	if _, err := NaiveJoint(c, pi, Pred(0, 0), []int{0, 1, 2}, uniformEmission(3), 2); err == nil {
		t.Error("obs longer than horizon accepted")
	}
}

func TestNaivePatternPriorMatchesGeneralEnumeration(t *testing.T) {
	c := chain3()
	pi := markov.Uniform(3)
	r1 := grid.MustRegionOf(3, 0, 1)
	r2 := grid.MustRegionOf(3, 1, 2)
	p := MustNewPattern([]*grid.Region{r1, r2}, 1)
	fast, err := naivePatternPrior(c, pi, p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NaivePrior(c, pi, p.Expr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-slow) > 1e-12 {
		t.Fatalf("pattern prior %v vs expr prior %v", fast, slow)
	}
}

func TestNaivePatternJointMatchesGeneralEnumeration(t *testing.T) {
	c := chain3()
	pi := markov.Uniform(3)
	r1 := grid.MustRegionOf(3, 0, 1)
	r2 := grid.MustRegionOf(3, 1, 2)
	p := MustNewPattern([]*grid.Region{r1, r2}, 1)
	em := func(t, o, s int) float64 {
		if o == s {
			return 0.8
		}
		return 0.1
	}
	// Algorithm 4 covers only in-window observations; cross-check against
	// the general enumerator restricted to the window by making the
	// emission outside the window constant 1.
	emWindow := func(t, o, s int) float64 {
		if t < 1 || t > 2 {
			return 1
		}
		return em(t, o, s)
	}
	fast, err := NaivePatternJoint(c, pi, p, []int{0, 1}, func(t, o, s int) float64 { return em(t, o, s) })
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NaiveJoint(c, pi, p.Expr(), []int{99, 0, 1}, func(t, o, s int) float64 {
		return emWindow(t, o, s)
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-slow) > 1e-12 {
		t.Fatalf("pattern joint %v vs general %v", fast, slow)
	}
}

func TestNaivePatternJointStartZero(t *testing.T) {
	c := chain3()
	pi := mat.Vector{0.5, 0.3, 0.2}
	r1 := grid.MustRegionOf(3, 0)
	p := MustNewPattern([]*grid.Region{r1}, 0)
	got, err := NaivePatternJoint(c, pi, p, []int{0}, func(t, o, s int) float64 {
		if o == s {
			return 0.9
		}
		return 0.05
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 0.9
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("joint = %v want %v", got, want)
	}
}

func TestNaivePatternJointErrors(t *testing.T) {
	c := chain3()
	p := MustNewPattern([]*grid.Region{grid.MustRegionOf(3, 0)}, 1)
	if _, err := NaivePatternJoint(c, markov.Uniform(2), p, []int{0}, uniformEmission(3)); err == nil {
		t.Error("mismatched distribution accepted")
	}
	if _, err := NaivePatternJoint(c, markov.Uniform(3), p, []int{0, 1}, uniformEmission(3)); err == nil {
		t.Error("wrong obs length accepted")
	}
	if _, err := NaivePatternJoint(c, markov.Uniform(3), p, []int{0}, nil); err == nil {
		t.Error("nil emission accepted")
	}
}

// Property: NaivePrior of a random small expression plus its negation is 1.
func TestNaivePriorComplementRandomProperty(t *testing.T) {
	c := chain3()
	pi := markov.Uniform(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3, 3, 2)
		p1, err1 := NaivePrior(c, pi, e, 3)
		p2, err2 := NaivePrior(c, pi, not(e), 3)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p1+p2-1) < 1e-10 && p1 >= -1e-12 && p1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomExpr builds a random expression over `horizon` timestamps and m
// states with the given depth.
func randomExpr(rng *rand.Rand, m, horizon, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return Pred(rng.Intn(horizon), rng.Intn(m))
	}
	n := 1 + rng.Intn(3)
	kids := make([]*Expr, n)
	for i := range kids {
		kids[i] = randomExpr(rng, m, horizon, depth-1)
	}
	switch rng.Intn(3) {
	case 0:
		return And(kids...)
	case 1:
		return Or(kids...)
	default:
		return not(kids[0])
	}
}
