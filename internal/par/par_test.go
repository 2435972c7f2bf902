package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestTileOf checks the tiling invariants the determinism argument rests
// on: boundaries are a pure function of n, every index lands in exactly
// one tile, and the tile count never exceeds maxTiles.
func TestTileOf(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 63, 64, 65, 100, 127, 128, 400, 401, 4096, 9999} {
		tile, tiles := tileOf(n)
		if tiles > maxTiles {
			t.Errorf("n=%d: tiles=%d exceeds maxTiles=%d", n, tiles, maxTiles)
		}
		if tile < 1 || tiles < 1 {
			t.Fatalf("n=%d: degenerate tiling tile=%d tiles=%d", n, tile, tiles)
		}
		// The last tile must be non-empty and the tiles must cover [0,n).
		covered := 0
		for i := 0; i < tiles; i++ {
			lo := i * tile
			hi := lo + tile
			if hi > n {
				hi = n
			}
			if hi <= lo {
				t.Errorf("n=%d: empty tile %d of %d", n, i, tiles)
			}
			covered += hi - lo
		}
		if covered != n {
			t.Errorf("n=%d: tiles cover %d indices", n, covered)
		}
	}
}

// TestForCoversAllIndices runs For at several widths and checks every
// index is visited exactly once — one accumulation chain per output.
func TestForCoversAllIndices(t *testing.T) {
	for _, width := range []int{1, 2, 4, 7} {
		for _, n := range []int{1, 5, 64, 65, 400, 1000} {
			p := NewPool()
			p.SetParallelism(width)
			counts := make([]int32, n)
			p.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("width=%d n=%d: index %d visited %d times", width, n, i, c)
				}
			}
		}
	}
}

// TestConcurrentFor drives many concurrent submitters through one pool —
// the 64-sessions-one-budget shape — and checks isolation of their tasks.
func TestConcurrentFor(t *testing.T) {
	p := NewPool()
	p.SetParallelism(4)
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 100 + c*17
			counts := make([]int32, n)
			for rep := 0; rep < 20; rep++ {
				for i := range counts {
					counts[i] = 0
				}
				p.For(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, v := range counts {
					if v != 1 {
						errs <- "caller saw index visited != once"
						_ = i
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestParallelGate checks every serial-dispatch condition: width 1,
// single tile, and flops below cutoff.
func TestParallelGate(t *testing.T) {
	p := NewPool()
	p.SetParallelism(1)
	if p.Parallel(100, 1<<30, 1) {
		t.Error("width 1 should stay serial")
	}
	p.SetParallelism(4)
	if p.Parallel(1, 1<<30, 1) {
		t.Error("single-row kernels should stay serial")
	}
	if p.Parallel(100, 10, 1000) {
		t.Error("below-cutoff kernels should stay serial")
	}
	if !p.Parallel(100, 1000, 1000) {
		t.Error("at-cutoff kernels should dispatch")
	}

	st := p.Stats()
	if st.SerialDispatch != 3 {
		t.Errorf("serial dispatches = %d, want 3", st.SerialDispatch)
	}
}

// TestCutoffOverride checks the test hook used by the equivalence tests
// to force parallel dispatch on tiny matrices.
func TestCutoffOverride(t *testing.T) {
	p := NewPool()
	p.SetParallelism(4)
	if p.Parallel(8, 10, 1<<40) {
		t.Fatal("tiny kernel dispatched without override")
	}
	p.SetCutoffOverride(1)
	if !p.Parallel(8, 10, 1<<40) {
		t.Error("override should replace the caller cutoff")
	}
	p.SetCutoffOverride(0)
	if p.Parallel(8, 10, 1<<40) {
		t.Error("clearing the override should restore the caller cutoff")
	}
}

// TestStatsCounters checks the dispatch/steal accounting.
func TestStatsCounters(t *testing.T) {
	p := NewPool()
	p.SetParallelism(4)
	if w := p.Parallelism(); w != 4 {
		t.Errorf("Parallelism = %d, want 4", w)
	}
	for rep := 0; rep < 50; rep++ {
		p.For(256, func(lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			_ = s
		})
	}
	st := p.Stats()
	if st.ParallelDispatch != 50 {
		t.Errorf("ParallelDispatch = %d, want 50", st.ParallelDispatch)
	}
	p.mu.Lock()
	workers := p.spawned
	p.mu.Unlock()
	if workers < 0 || workers > maxWorkers {
		t.Errorf("workers = %d out of range", workers)
	}
	if st.Steals < 0 {
		t.Errorf("Steals = %d negative", st.Steals)
	}
}

// TestSetParallelismClamp checks negative widths clamp to auto.
func TestSetParallelismClamp(t *testing.T) {
	p := NewPool()
	p.SetParallelism(-3)
	if w := p.Parallelism(); w < 1 {
		t.Errorf("Parallelism = %d after negative set, want >= 1 (GOMAXPROCS)", w)
	}
}

// TestForZero checks the degenerate inputs.
func TestForZero(t *testing.T) {
	p := NewPool()
	ran := false
	p.For(0, func(lo, hi int) { ran = true })
	p.For(-5, func(lo, hi int) { ran = true })
	if ran {
		t.Error("For on empty range ran its body")
	}
}
