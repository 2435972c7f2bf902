package world

import (
	"math"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

func fpModel(t *testing.T) *Model {
	t.Helper()
	g := grid.MustNew(3, 3, 1)
	chain, err := markov.GaussianChain(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRect(g, 0, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewModel(NewHomogeneous(chain), event.MustNewPresence(region, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// TestHistoryFingerprint: equal tag sequences agree, any differing tag
// (alpha, obs, or order) diverges, and plain Commit leaves the
// fingerprint untouched.
func TestHistoryFingerprint(t *testing.T) {
	md := fpModel(t)
	col := mat.NewVector(9)
	for i := range col {
		col[i] = 1.0 / 9
	}
	tag := func(alpha float64) uint64 { return math.Float64bits(alpha) }

	a, b := NewQuantifier(md), NewQuantifier(md)
	if a.HistoryFingerprint() != b.HistoryFingerprint() {
		t.Fatal("fresh quantifiers disagree")
	}
	for _, step := range []struct {
		alpha float64
		obs   int
	}{{1.0, 3}, {0.5, 7}, {0, 1}} {
		if err := a.commitTagged(col, tag(step.alpha), step.obs); err != nil {
			t.Fatal(err)
		}
		if err := b.commitTagged(col, tag(step.alpha), step.obs); err != nil {
			t.Fatal(err)
		}
	}
	if a.HistoryFingerprint() != b.HistoryFingerprint() {
		t.Fatal("identical histories produced different fingerprints")
	}

	c := NewQuantifier(md)
	if err := c.commitTagged(col, tag(1.0), 4); err != nil { // different obs
		t.Fatal(err)
	}
	if c.HistoryFingerprint() == a.HistoryFingerprint() {
		t.Fatal("different histories share a fingerprint")
	}

	d := NewQuantifier(md)
	if err := d.commitTagged(col, tag(0.25), 3); err != nil { // different alpha
		t.Fatal(err)
	}
	e := NewQuantifier(md)
	if err := e.commitTagged(col, tag(1.0), 3); err != nil {
		t.Fatal(err)
	}
	if d.HistoryFingerprint() == e.HistoryFingerprint() {
		t.Fatal("different budgets share a fingerprint")
	}

	before := e.HistoryFingerprint()
	if err := e.Commit(col); err != nil {
		t.Fatal(err)
	}
	if e.HistoryFingerprint() != before {
		t.Fatal("plain Commit changed the fingerprint")
	}
}
