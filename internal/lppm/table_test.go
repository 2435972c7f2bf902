package lppm

import (
	"sync"
	"testing"

	"priste/internal/grid"
)

// TestEmissionTableBounded: the per-budget cache must stay bounded under
// adversarially varied budgets (the unbounded-map regression) and keep
// returning correct matrices after eviction.
func TestEmissionTableBounded(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	p := NewPlanarLaplace(g)
	for i := 1; i <= 4*maxPLMCache; i++ {
		alpha := float64(i) / 7
		e, err := p.Emission(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !e.IsRowStochastic(1e-9) {
			t.Fatalf("emission at alpha=%g not row-stochastic", alpha)
		}
	}
	if n := p.table.Len(); n > maxPLMCache {
		t.Fatalf("table holds %d matrices, bound %d", n, maxPLMCache)
	}
	if _, _, evictions := p.table.Stats(); evictions == 0 {
		t.Fatal("no evictions after overflow")
	}
}

// TestEmissionTableSharedHits: repeated budgets are served from the table
// (one compute per distinct value), including via the shared-instance path
// used by plans.
func TestEmissionTableSharedHits(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	p := NewPlanarLaplace(g)
	a, err := p.Emission(0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Emission(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same budget recomputed")
	}
	hits, misses, _ := p.table.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d after two identical gets", hits, misses)
	}
}

// TestEmissionTableConcurrent exercises the table from many goroutines,
// as sessions sharing a plan do (run under -race).
func TestEmissionTableConcurrent(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	p := NewPlanarLaplace(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				alpha := 1.0 / float64(1+(i+w)%5)
				if _, err := p.Emission(alpha); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := p.table.Len(); n != 5 {
		t.Fatalf("table holds %d matrices, want 5 distinct budgets", n)
	}
}
