package geolife

import (
	"math"
	"testing"

	"priste/internal/grid"
)

func smallConfig(seed int64) Config {
	return Config{
		Grid:        grid.MustNew(8, 8, 1),
		Days:        20,
		StepsPerDay: 40,
		Seed:        seed,
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("nil grid accepted")
	}
	g := grid.MustNew(4, 4, 1)
	if _, err := Generate(Config{Grid: g, Days: -1}); err == nil {
		t.Error("negative days accepted")
	}
	if _, err := Generate(Config{Grid: g, ErrandProb: 2}); err == nil {
		t.Error("errand prob > 1 accepted")
	}
	if _, err := Generate(Config{Grid: g, WanderNoise: -0.1}); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Raw) != 20 || len(ds.States) != 20 {
		t.Fatalf("days = %d/%d", len(ds.Raw), len(ds.States))
	}
	for d, day := range ds.Raw {
		if len(day) != 40 {
			t.Fatalf("day %d has %d steps", d, len(day))
		}
		for i, p := range day {
			if p.T != i {
				t.Fatalf("day %d point %d has T=%d", d, i, p.T)
			}
		}
	}
	m := ds.Grid.States()
	for _, traj := range ds.States {
		for _, s := range traj {
			if s < 0 || s >= m {
				t.Fatalf("state %d out of range", s)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Home != b.Home || a.Work != b.Work {
		t.Fatal("anchors differ across identical seeds")
	}
	for d := range a.States {
		for i := range a.States[d] {
			if a.States[d][i] != b.States[d][i] {
				t.Fatalf("day %d step %d differs", d, i)
			}
		}
	}
	c, err := Generate(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for d := range a.States {
		for i := range a.States[d] {
			if a.States[d][i] != c.States[d][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// TestAnchoredRoutine: the day trajectories must start at home, visit
// work, and anchors must dominate the visit distribution.
func TestAnchoredRoutine(t *testing.T) {
	ds, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, traj := range ds.States {
		if traj[0] != ds.Home {
			t.Fatalf("day starts at %d, home is %d", traj[0], ds.Home)
		}
		sawWork := false
		for _, s := range traj {
			counts[s]++
			if s == ds.Work {
				sawWork = true
			}
		}
		if !sawWork {
			t.Fatal("day never reached work")
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	homeFrac := float64(counts[ds.Home]) / float64(total)
	workFrac := float64(counts[ds.Work]) / float64(total)
	if homeFrac < 0.1 || workFrac < 0.1 {
		t.Fatalf("anchors underrepresented: home %v work %v", homeFrac, workFrac)
	}
}

// TestTrainProducesPatternedChain: the trained chain must be far more
// patterned than uniform, which is what Figs. 11–13 rely on.
func TestTrainProducesPatternedChain(t *testing.T) {
	ds, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	chain, pi, err := ds.Train(0.001)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Grid.States()
	if chain.States() != m || len(pi) != m {
		t.Fatal("dimension mismatch")
	}
	if !pi.IsDistribution(1e-9) {
		t.Fatal("initial not a distribution")
	}
	if ps := chain.PatternStrength(); ps < 5.0/float64(m) {
		t.Fatalf("pattern strength %v too close to uniform (1/m = %v)", ps, 1.0/float64(m))
	}
	// Local moves dominate: average jump distance under the chain from
	// the home cell should be well under the map diameter.
	row := chain.Matrix().Row(ds.Home)
	var mean float64
	for j, p := range row {
		mean += p * ds.Grid.Dist(ds.Home, j)
	}
	diam := ds.Grid.Dist(0, m-1)
	if mean > diam/2 {
		t.Fatalf("mean jump %v vs diameter %v: not local", mean, diam)
	}
}

// TestJitterStaysNearCell: raw points must lie within their cell's
// neighbourhood (jitter < one cell).
func TestJitterStaysNearCell(t *testing.T) {
	ds, err := Generate(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	for d, day := range ds.Raw {
		for i, p := range day {
			s := ds.States[d][i]
			cx, cy := ds.Grid.Center(s)
			if math.Hypot(p.X-cx, p.Y-cy) > ds.Grid.CellSize {
				t.Fatalf("day %d point %d drifted %v from its cell",
					d, i, math.Hypot(p.X-cx, p.Y-cy))
			}
		}
	}
}
