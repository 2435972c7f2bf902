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

func TestGeneralPresenceValidation(t *testing.T) {
	if _, err := NewGeneralPresence(nil); err == nil {
		t.Error("empty map accepted")
	}
	r := grid.MustRegionOf(3, 0)
	if _, err := NewGeneralPresence(map[int]*grid.Region{-1: r}); err == nil {
		t.Error("negative timestamp accepted")
	}
	if _, err := NewGeneralPresence(map[int]*grid.Region{0: grid.NewRegion(3)}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := NewGeneralPresence(map[int]*grid.Region{0: r, 1: grid.MustRegionOf(4, 0)}); err == nil {
		t.Error("state-space mismatch accepted")
	}
}

func TestGeneralPresenceSemantics(t *testing.T) {
	// Sensitive at {s0} at t=1 and {s2} at t=3 (different regions!).
	p, err := NewGeneralPresence(map[int]*grid.Region{
		1: grid.MustRegionOf(3, 0),
		3: grid.MustRegionOf(3, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, e := p.Window(); s != 1 || e != 3 {
		t.Fatalf("window = %d..%d", s, e)
	}
	if !p.Sticky() {
		t.Error("general presence must be sticky")
	}
	if !p.Truth([]int{1, 0, 1, 1}) {
		t.Error("t=1 hit missed")
	}
	if !p.Truth([]int{1, 1, 1, 2}) {
		t.Error("t=3 hit missed")
	}
	if p.Truth([]int{0, 2, 0, 1}) {
		t.Error("wrong-region visits counted")
	}
	// Gap timestamp 2 carries no region.
	if !p.RegionAt(2).IsEmpty() {
		t.Error("gap region not empty")
	}
	if !strings.Contains(p.String(), "general") {
		t.Errorf("String = %q", p.String())
	}
	e := p.Expr()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		traj := []int{rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		if e.Eval(traj) != p.Truth(traj) {
			t.Fatalf("expr mismatch on %v", traj)
		}
	}
}

func TestCompilePresenceShapes(t *testing.T) {
	// Fig. 1 (d): (u0=s0) ∨ (u1=s0).
	ev, err := CompileWithStates(Or(Pred(0, 0), Pred(1, 0)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Sticky() {
		t.Fatal("OR must compile to a sticky event")
	}
	if !ev.Truth([]int{0, 1}) || !ev.Truth([]int{1, 0}) || ev.Truth([]int{1, 1}) {
		t.Fatal("compiled semantics wrong")
	}
	// Fig. 1 (f): nested ORs across timestamps and states.
	ev2, err := CompileWithStates(Or(Or(Pred(0, 0), Pred(0, 1)), Or(Pred(1, 0), Pred(1, 1))), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ev2.Truth([]int{2, 1}) || ev2.Truth([]int{2, 2}) {
		t.Fatal("nested OR semantics wrong")
	}
}

func TestCompilePatternShapes(t *testing.T) {
	// Fig. 1 (e): ((u0=s0)∨(u0=s1)) ∧ ((u1=s0)∨(u1=s1)).
	ev, err := CompileWithStates(And(Or(Pred(0, 0), Pred(0, 1)), Or(Pred(1, 0), Pred(1, 1))), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sticky() {
		t.Fatal("AND must compile to a non-sticky event")
	}
	if !ev.Truth([]int{0, 1}) || ev.Truth([]int{0, 2}) || ev.Truth([]int{2, 0}) {
		t.Fatal("pattern semantics wrong")
	}
	// Fig. 1 (c): a single trajectory (u0=s0) ∧ (u1=s0).
	ev2, err := CompileWithStates(And(Pred(0, 0), Pred(1, 0)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ev2.Truth([]int{0, 0}) || ev2.Truth([]int{0, 1}) {
		t.Fatal("trajectory semantics wrong")
	}
	// Sparse conjunction: constraints at t=0 and t=2 only.
	ev3, err := CompileWithStates(And(Pred(0, 1), Pred(2, 1)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ev3.Truth([]int{1, 0, 1}) || ev3.Truth([]int{1, 1, 0}) {
		t.Fatal("sparse conjunction semantics wrong")
	}
}

func TestCompileRejections(t *testing.T) {
	cases := map[string]*Expr{
		"nil":                      nil,
		"negation":                 not(Pred(0, 0)),
		"mixed conjunct":           And(Or(Pred(0, 0), Pred(1, 0)), Pred(2, 0)),
		"duplicate timestamp":      And(Pred(1, 0), Pred(1, 2)),
		"or-of-and":                Or(And(Pred(0, 0), Pred(1, 0)), Pred(2, 0)),
		"negation inside conjunct": And(Pred(0, 0), not(Pred(1, 0))),
	}
	for name, e := range cases {
		if _, err := Compile(e); err == nil {
			t.Errorf("%s: expected compile error", name)
		}
	}
}

func TestCompileWithStates(t *testing.T) {
	ev, err := CompileWithStates(Or(Pred(0, 1), Pred(2, 0)), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.States() != 5 {
		t.Fatalf("states = %d", ev.States())
	}
	// Pattern resize too.
	ev2, err := CompileWithStates(And(Pred(0, 1), Pred(1, 2)), 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.States() != 7 {
		t.Fatalf("pattern states = %d", ev2.States())
	}
	if _, err := CompileWithStates(Or(Pred(0, 9)), 3); err == nil {
		t.Error("state beyond map accepted")
	}
	if _, err := CompileWithStates(Pred(0, 0), 0); err == nil {
		t.Error("m=0 accepted")
	}
}

// Property: a compiled event's Truth agrees with the source expression on
// random trajectories, for both supported shapes.
func TestCompileSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		horizon := 2 + rng.Intn(3)
		m := 2 + rng.Intn(3)
		var e *Expr
		if rng.Intn(2) == 0 {
			// Random disjunction.
			n := 1 + rng.Intn(5)
			kids := make([]*Expr, n)
			for i := range kids {
				kids[i] = Pred(rng.Intn(horizon), rng.Intn(m))
			}
			e = Or(kids...)
		} else {
			// Random per-timestamp conjunction over distinct timestamps.
			perm := rng.Perm(horizon)
			n := 1 + rng.Intn(horizon)
			var kids []*Expr
			for _, t := range perm[:n] {
				w := 1 + rng.Intn(m)
				var disj []*Expr
				for k := 0; k < w; k++ {
					disj = append(disj, Pred(t, rng.Intn(m)))
				}
				kids = append(kids, Or(disj...))
			}
			e = And(kids...)
		}
		ev, err := CompileWithStates(e, m)
		if err != nil {
			return false
		}
		for trial := 0; trial < 40; trial++ {
			traj := make([]int, horizon)
			for i := range traj {
				traj[i] = rng.Intn(m)
			}
			if ev.Truth(traj) != e.Eval(traj) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: compiled events produce the same prior as the naive evaluation
// of their source expression (closing the loop with the quantifier's
// event interface).
func TestCompilePriorConsistencyProperty(t *testing.T) {
	c := markov.MustNewChain(mat.FromRows([][]float64{
		{0.1, 0.2, 0.7},
		{0.4, 0.1, 0.5},
		{0, 0.1, 0.9},
	}))
	pi := markov.Uniform(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Or(Pred(rng.Intn(3), rng.Intn(3)), Pred(rng.Intn(3), rng.Intn(3)), Pred(rng.Intn(3), rng.Intn(3)))
		ev, err := CompileWithStates(e, 3)
		if err != nil {
			return false
		}
		_, end := ev.Window()
		p1, err := NaivePrior(c, pi, e, end+1)
		if err != nil {
			return false
		}
		p2, err := NaivePrior(c, pi, ev.Expr(), end+1)
		if err != nil {
			return false
		}
		return math.Abs(p1-p2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
