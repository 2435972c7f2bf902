package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, 1); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := New(3, -1, 1); err == nil {
		t.Error("expected error for negative height")
	}
	if _, err := New(3, 3, 0); err == nil {
		t.Error("expected error for zero cell size")
	}
	if _, err := New(3, 3, math.NaN()); err == nil {
		t.Error("expected error for NaN cell size")
	}
	if _, err := New(3, 3, 1); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestStateXYRoundTrip(t *testing.T) {
	g := MustNew(4, 3, 1)
	if g.States() != 12 {
		t.Fatalf("States = %d", g.States())
	}
	for s := 0; s < g.States(); s++ {
		x, y := g.XY(s)
		if got := g.State(x, y); got != s {
			t.Fatalf("round trip %d -> (%d,%d) -> %d", s, x, y, got)
		}
	}
}

func TestCenterAndDist(t *testing.T) {
	g := MustNew(3, 3, 2) // 2 km cells
	cx, cy := g.Center(0)
	if cx != 1 || cy != 1 {
		t.Fatalf("Center(0) = (%v,%v)", cx, cy)
	}
	// states 0 and 2 are two cells apart horizontally: 4 km.
	if d := g.Dist(0, 2); math.Abs(d-4) > 1e-12 {
		t.Fatalf("Dist(0,2) = %v", d)
	}
	// diagonal neighbour: 2*sqrt(2).
	if d := g.Dist(0, 4); math.Abs(d-2*math.Sqrt2) > 1e-12 {
		t.Fatalf("Dist(0,4) = %v", d)
	}
}

func TestSnap(t *testing.T) {
	g := MustNew(3, 3, 1)
	if s := g.Snap(0.4, 0.4); s != 0 {
		t.Errorf("Snap(0.4,0.4) = %d", s)
	}
	if s := g.Snap(2.9, 2.9); s != 8 {
		t.Errorf("Snap(2.9,2.9) = %d", s)
	}
	// Out-of-bounds clamps to boundary.
	if s := g.Snap(-5, 1.5); s != g.State(0, 1) {
		t.Errorf("Snap clamp left = %d", s)
	}
	if s := g.Snap(100, 100); s != 8 {
		t.Errorf("Snap clamp corner = %d", s)
	}
}

func TestSnapCenterRoundTripProperty(t *testing.T) {
	g := MustNew(7, 5, 0.5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := rng.Intn(g.States())
		cx, cy := g.Center(s)
		return g.Snap(cx, cy) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMatrix(t *testing.T) {
	g := MustNew(2, 2, 1)
	d := g.DistanceMatrix()
	if d.At(0, 0) != 0 {
		t.Error("diagonal not zero")
	}
	if d.At(0, 3) != d.At(3, 0) {
		t.Error("not symmetric")
	}
	if math.Abs(d.At(0, 3)-math.Sqrt2) > 1e-12 {
		t.Errorf("diag dist = %v", d.At(0, 3))
	}
}

func TestRegionBasics(t *testing.T) {
	r := MustRegionOf(5, 1, 3)
	if r.Count() != 2 || !r.Contains(1) || !r.Contains(3) || r.Contains(0) {
		t.Fatalf("region wrong: %v", r.States())
	}
	r.Add(0)
	if !r.Contains(0) || r.Count() != 3 {
		t.Fatalf("Add failed: %v", r.States())
	}
	if got := r.States(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("States = %v", got)
	}
}

func TestRegionOfValidation(t *testing.T) {
	if _, err := RegionOf(3, 5); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := RegionOf(3, -1); err == nil {
		t.Error("expected negative-state error")
	}
}

func TestRegionRange(t *testing.T) {
	r, err := RegionRange(10, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d", r.Count())
	}
	if _, err := RegionRange(10, 4, 2); err == nil {
		t.Error("expected error for inverted range")
	}
	if _, err := RegionRange(10, 0, 10); err == nil {
		t.Error("expected error for hi == m")
	}
}

func TestRegionRect(t *testing.T) {
	g := MustNew(4, 4, 1)
	r, err := RegionRect(g, 1, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 4 {
		t.Fatalf("Count = %d", r.Count())
	}
	for _, s := range []int{g.State(1, 1), g.State(2, 1), g.State(1, 2), g.State(2, 2)} {
		if !r.Contains(s) {
			t.Fatalf("missing state %d", s)
		}
	}
	if _, err := RegionRect(g, 2, 2, 1, 1); err == nil {
		t.Error("expected error for inverted rect")
	}
}
