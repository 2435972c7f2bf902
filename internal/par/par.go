// Package par is the process-global, capacity-bounded worker pool behind
// every tile-parallel kernel in the engine.
//
// One pool is shared by all sessions and all kernels: 64 concurrent
// commits contend for one CPU budget (GOMAXPROCS cores by default)
// instead of spawning 64×N goroutines. The pool's fork-join primitive,
// For(n, body), splits [0,n) into tiles whose boundaries are a fixed
// function of n alone — never of the worker count — and hands each tile
// to exactly one executor. Kernels built on it therefore produce
// bit-identical results at any parallelism: every output entry keeps a
// single accumulation chain, evaluated in the same order the serial
// kernel uses, so fingerprints, replay, and cross-instance migration are
// preserved whether a product ran on 1 core or 64.
//
// # Scheduling model
//
// The submitting goroutine is always an executor: For publishes the task,
// then claims tiles itself until none remain, so a For call never blocks
// waiting for pool capacity and degrades gracefully to the serial loop
// under load. Helper workers are parked goroutines (at most width−1 per
// task, at most maxWorkers overall, spawned lazily and kept parked when
// idle) that steal tiles from published tasks via an atomic claim
// counter — the "work-stealing" here is tile-granular self-scheduling,
// which load-balances uneven tiles without ever splitting one.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// maxTiles bounds the tile count of one For call. Tile boundaries
	// depend only on n (never on worker count), so any n > maxTiles
	// splits into exactly maxTiles near-equal contiguous ranges —
	// enough granularity to balance 64 ways, small enough that the
	// claim counter isn't contended.
	maxTiles = 64
	// maxWorkers caps helper goroutines spawned over the pool's
	// lifetime; parked workers are reused, never released.
	maxWorkers = 256
)

// tileOf returns the tile size and tile count for an n-element range.
// Pure function of n: fixed boundaries are what make parallel kernels
// bit-identical to serial ones at any worker count.
func tileOf(n int) (tile, tiles int) {
	tiles = n
	if tiles > maxTiles {
		tiles = maxTiles
	}
	tile = (n + tiles - 1) / tiles
	tiles = (n + tile - 1) / tile
	return tile, tiles
}

// task is one published For call.
type task struct {
	body    func(lo, hi int)
	n, tile int
	tiles   int64
	next    atomic.Int64 // tile claim counter
	helpers atomic.Int64 // remaining helper slots (bounds CPU per task)
	wg      sync.WaitGroup
}

// runTile executes tile i ([i·tile, min(n,(i+1)·tile))).
func (t *task) runTile(i int64) {
	lo := int(i) * t.tile
	hi := lo + t.tile
	if hi > t.n {
		hi = t.n
	}
	t.body(lo, hi)
	t.wg.Done()
}

// Pool is a bounded fork-join worker pool. The zero value is not ready;
// use NewPool or the process-global Default.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tasks   []*task // published, possibly not yet exhausted
	spawned int     // helper goroutines started (grow-only, parked when idle)

	configured     atomic.Int64 // SetParallelism; 0 = track GOMAXPROCS
	cutoffOverride atomic.Int64 // test hook; >0 replaces caller cutoffs

	parallelFor atomic.Int64 // For dispatches
	serialFor   atomic.Int64 // Parallel()==false decisions
	steals      atomic.Int64 // tiles executed by helpers (not the submitter)
}

// NewPool returns an empty pool. Library code should use Default; a
// private pool is for tests that need isolated counters.
func NewPool() *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

var std = NewPool()

// Default returns the process-global pool shared by every kernel.
func Default() *Pool { return std }

// SetParallelism fixes the pool width to n; tests use it to sweep
// widths on their own pools. n <= 0 restores the default: track
// runtime.GOMAXPROCS dynamically. Safe to call concurrently; takes
// effect on the next dispatch decision.
func (p *Pool) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	p.configured.Store(int64(n))
}

// Parallelism returns the effective pool width: the configured value, or
// GOMAXPROCS when unconfigured. Read per call, so `go test -cpu 1,4`
// exercises both widths within one process.
func (p *Pool) Parallelism() int {
	if c := p.configured.Load(); c > 0 {
		return int(c)
	}
	return runtime.GOMAXPROCS(0)
}

// SetCutoffOverride replaces every caller-supplied flops cutoff with v
// while v > 0 (0 restores caller cutoffs). Test hook: equivalence and
// race tests force parallel dispatch on matrices far below the
// production cutoffs.
func (p *Pool) SetCutoffOverride(v int64) { p.cutoffOverride.Store(v) }

// Parallel reports whether an n-tile kernel costing flops multiply-adds
// should dispatch through For. Callers branch on it *before*
// materialising the tile closure, keeping the serial fast path
// allocation-free. A false return counts one serial dispatch.
func (p *Pool) Parallel(n int, flops, cutoff int64) bool {
	if o := p.cutoffOverride.Load(); o > 0 {
		cutoff = o
	}
	if p.Parallelism() <= 1 || n <= 1 || flops < cutoff {
		p.serialFor.Add(1)
		return false
	}
	return true
}

// For runs body over [0,n) split into fixed tiles, the submitting
// goroutine participating, and returns when every tile has completed.
// Each index lands in exactly one tile and each tile runs exactly once,
// so row-wise kernels keep one accumulation chain per output entry.
func (p *Pool) For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p.dispatch(&task{body: body}, n)
}

func (p *Pool) dispatch(t *task, n int) {
	p.parallelFor.Add(1)
	t.n = n
	t.tile, _ = tileOf(n)
	tiles := (n + t.tile - 1) / t.tile
	t.tiles = int64(tiles)
	t.helpers.Store(int64(p.Parallelism() - 1))
	t.wg.Add(tiles)
	p.publish(t)
	// The submitter is an executor too: claim tiles until none remain,
	// then join on the stragglers helpers still hold.
	for {
		i := t.next.Add(1) - 1
		if i >= t.tiles {
			break
		}
		t.runTile(i)
	}
	t.wg.Wait()
	p.retire(t)
}

// publish makes t stealable and tops the worker complement up to the
// task's helper budget (bounded by maxWorkers; idle parked workers are
// reused first).
func (p *Pool) publish(t *task) {
	need := int(t.helpers.Load())
	if int(t.tiles)-1 < need {
		need = int(t.tiles) - 1
	}
	p.mu.Lock()
	p.tasks = append(p.tasks, t)
	for p.spawned < need && p.spawned < maxWorkers {
		p.spawned++
		go p.worker()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// retire unpublishes t after the submitter has joined all tiles.
func (p *Pool) retire(t *task) {
	p.mu.Lock()
	for i, x := range p.tasks {
		if x == t {
			last := len(p.tasks) - 1
			p.tasks[i] = p.tasks[last]
			p.tasks[last] = nil
			p.tasks = p.tasks[:last]
			break
		}
	}
	p.mu.Unlock()
}

// claimLocked picks a published task with unclaimed tiles and a free
// helper slot, consuming the slot. Caller holds p.mu.
func (p *Pool) claimLocked() *task {
	for _, t := range p.tasks {
		if t.next.Load() >= t.tiles {
			continue
		}
		if t.helpers.Add(-1) >= 0 {
			return t
		}
		t.helpers.Add(1) // full helper complement already working on t
	}
	return nil
}

// worker is a parked helper: it steals tiles from published tasks and
// sleeps on the condition variable between tasks. Workers live for the
// process lifetime — a parked goroutine costs only its stack.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		t := p.claimLocked()
		if t == nil {
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		for {
			i := t.next.Add(1) - 1
			if i >= t.tiles {
				break
			}
			p.steals.Add(1)
			t.runTile(i)
		}
		t.helpers.Add(1)
		p.mu.Lock()
	}
}

// Stats is a point-in-time snapshot of the pool's counters; the
// benchmark's layer report reads its dispatch and steal counts.
type Stats struct {
	// ParallelDispatch counts For calls; SerialDispatch counts
	// Parallel()==false decisions (kernel ran its serial loop).
	ParallelDispatch int64
	SerialDispatch   int64
	// Steals counts tiles executed by helpers rather than the
	// submitting goroutine.
	Steals int64
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		ParallelDispatch: p.parallelFor.Load(),
		SerialDispatch:   p.serialFor.Load(),
		Steals:           p.steals.Load(),
	}
}
