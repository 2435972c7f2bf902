package event

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

func TestSparsePresenceValidation(t *testing.T) {
	r := grid.MustRegionOf(3, 0)
	if _, err := NewSparsePresence(grid.NewRegion(3), []int{1}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := NewSparsePresence(r, nil); err == nil {
		t.Error("empty times accepted")
	}
	if _, err := NewSparsePresence(r, []int{-1}); err == nil {
		t.Error("negative time accepted")
	}
	p, err := NewSparsePresence(r, []int{4, 1, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.times; len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("times = %v", got)
	}
}

func TestSparsePresenceSemantics(t *testing.T) {
	r := grid.MustRegionOf(3, 0)
	p, err := NewSparsePresence(r, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s, e := p.Window(); s != 1 || e != 3 {
		t.Fatalf("window = %d..%d", s, e)
	}
	if !p.Sticky() {
		t.Error("sparse presence must be sticky")
	}
	// Gap timestamp 2 is not protected: a visit there does not trigger.
	if p.Truth([]int{0, 2, 0, 2}) {
		t.Error("gap visit should not count")
	}
	if !p.Truth([]int{2, 0, 2, 2}) {
		t.Error("t=1 visit should count")
	}
	if !p.Truth([]int{2, 2, 2, 0}) {
		t.Error("t=3 visit should count")
	}
	// RegionAt: listed vs gap.
	if p.RegionAt(1) != r {
		t.Error("listed timestamp region wrong")
	}
	if !p.RegionAt(2).IsEmpty() {
		t.Error("gap timestamp should carry empty region")
	}
	// Expr equivalence.
	e := p.Expr()
	for _, traj := range [][]int{{0, 0, 0, 0}, {1, 1, 0, 1}, {2, 2, 2, 2}, {2, 0, 1, 1}} {
		if e.Eval(traj) != p.Truth(traj) {
			t.Errorf("expr/truth mismatch on %v", traj)
		}
	}
}

func TestSparsePatternValidation(t *testing.T) {
	r := grid.MustRegionOf(3, 0)
	if _, err := NewSparsePattern(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewSparsePattern([]int{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewSparsePattern([]int{1, 1}, []*grid.Region{r, r}); err == nil {
		t.Error("duplicate timestamp accepted")
	}
	if _, err := NewSparsePattern([]int{-1}, []*grid.Region{r}); err == nil {
		t.Error("negative timestamp accepted")
	}
	if _, err := NewSparsePattern([]int{1}, []*grid.Region{grid.NewRegion(3)}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := NewSparsePattern([]int{1, 2}, []*grid.Region{r, grid.MustRegionOf(4, 0)}); err == nil {
		t.Error("state-space mismatch accepted")
	}
}

func TestSparsePatternSemantics(t *testing.T) {
	rA := grid.MustRegionOf(3, 0)
	rB := grid.MustRegionOf(3, 2)
	// Constrain t=1 and t=3; t=2 free.
	p, err := NewSparsePattern([]int{3, 1}, []*grid.Region{rB, rA})
	if err != nil {
		t.Fatal(err)
	}
	if s, e := p.Window(); s != 1 || e != 3 {
		t.Fatalf("window = %d..%d", s, e)
	}
	if p.Sticky() {
		t.Error("pattern must not be sticky")
	}
	if !p.Truth([]int{1, 0, 1, 2}) {
		t.Error("satisfying trajectory rejected")
	}
	if !p.Truth([]int{1, 0, 2, 2}) {
		t.Error("gap state must be unconstrained")
	}
	if p.Truth([]int{1, 1, 1, 2}) {
		t.Error("t=1 violation accepted")
	}
	if p.Truth([]int{1, 0, 1, 1}) {
		t.Error("t=3 violation accepted")
	}
	// Gap timestamp carries the full map.
	if p.RegionAt(2).Count() != 3 {
		t.Errorf("gap region = %v", p.RegionAt(2).States())
	}
	e := p.Expr()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		traj := []int{rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		if e.Eval(traj) != p.Truth(traj) {
			t.Fatalf("expr/truth mismatch on %v", traj)
		}
	}
}

// Property: naive prior of the sparse events' expressions equals the
// enumerated trajectory probability of Truth (consistency of the two
// definitions under the paper chain).
func TestSparseEventsNaiveConsistencyProperty(t *testing.T) {
	c := markov.MustNewChain(mat.FromRows([][]float64{
		{0.1, 0.2, 0.7},
		{0.4, 0.1, 0.5},
		{0, 0.1, 0.9},
	}))
	pi := markov.Uniform(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ev Event
		if rng.Intn(2) == 0 {
			times := []int{rng.Intn(2), 2 + rng.Intn(2)}
			region := grid.MustRegionOf(3, rng.Intn(3))
			p, err := NewSparsePresence(region, times)
			if err != nil {
				return false
			}
			ev = p
		} else {
			times := []int{rng.Intn(2), 2 + rng.Intn(2)}
			regions := []*grid.Region{
				grid.MustRegionOf(3, rng.Intn(3), (rng.Intn(3)+1)%3),
				grid.MustRegionOf(3, rng.Intn(3)),
			}
			p, err := NewSparsePattern(times, regions)
			if err != nil {
				return false
			}
			ev = p
		}
		_, end := ev.Window()
		viaExpr, err := NaivePrior(c, pi, ev.Expr(), end+1)
		if err != nil {
			return false
		}
		// Enumerate trajectories and apply Truth directly.
		var viaTruth float64
		horizon := end + 1
		forEachTrajectory(c, pi, horizon, func(traj []int, p float64) {
			if ev.Truth(traj) {
				viaTruth += p
			}
		})
		return math.Abs(viaExpr-viaTruth) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
