package world

import (
	"math/rand"
	"sync"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

// walkModel builds a model over a structurally sparse mobility chain
// (lazy random walk: ≤5 nonzeros per row) with the given kernel options.
func walkModel(t *testing.T, side int, opts ModelOptions) *Model {
	t.Helper()
	g := grid.MustNew(side, side, 1)
	chain, err := markov.LazyRandomWalk(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRange(g.States(), 0, side-1)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 2, 4)
	md, err := NewModelWithOptions(NewHomogeneous(chain), ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

func TestKernelAutoSelection(t *testing.T) {
	g := grid.MustNew(6, 6, 1)
	region, err := grid.RegionRange(g.States(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 2, 4)

	// A lazy random walk is ~14% dense on a 6×6 grid: auto goes sparse.
	walk, err := markov.LazyRandomWalk(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewModel(NewHomogeneous(walk), ev)
	if err != nil {
		t.Fatal(err)
	}
	ks := md.KernelStats()
	if ks.Sparse != 1 || ks.Dense != 0 {
		t.Fatalf("random walk compiled %+v, want 1 sparse kernel", ks)
	}
	if ks.NNZ == 0 || ks.Density <= 0 || ks.Density > DefaultSparseThreshold {
		t.Fatalf("implausible sparse stats %+v", ks)
	}

	// A Gaussian kernel has no exact zeros: auto stays dense.
	gauss, err := markov.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	md, err = NewModel(NewHomogeneous(gauss), ev)
	if err != nil {
		t.Fatal(err)
	}
	if ks := md.KernelStats(); ks.Dense != 1 || ks.Sparse != 0 {
		t.Fatalf("gaussian chain compiled %+v, want 1 dense kernel", ks)
	}

	// Forcing overrides the density decision both ways.
	md, err = NewModelWithOptions(NewHomogeneous(gauss), ev, ModelOptions{Kernel: KernelSparse})
	if err != nil {
		t.Fatal(err)
	}
	if ks := md.KernelStats(); ks.Sparse != 1 {
		t.Fatalf("forced sparse compiled %+v", ks)
	}
	md, err = NewModelWithOptions(NewHomogeneous(walk), ev, ModelOptions{Kernel: KernelDense})
	if err != nil {
		t.Fatal(err)
	}
	if ks := md.KernelStats(); ks.Dense != 1 {
		t.Fatalf("forced dense compiled %+v", ks)
	}
}

// TestKernelPathsBitIdentical drives a forced-dense and a forced-sparse
// quantifier through the same long sequence — crossing the window entry,
// the in-window updates and the backward phase — and requires exact
// (bitwise) agreement of every Check, Current and LogScale along the
// way. This is the property that lets release sequences, fingerprints
// and restart replay move freely between the kernels.
func TestKernelPathsBitIdentical(t *testing.T) {
	const side = 6
	dense := walkModel(t, side, ModelOptions{Kernel: KernelDense})
	sparse := walkModel(t, side, ModelOptions{Kernel: KernelSparse})

	// The compiled suffix vectors must already agree exactly.
	for tt := 0; tt <= dense.end; tt++ {
		sameBits(t, "vF", dense.vF[tt], sparse.vF[tt])
		sameBits(t, "vT", dense.vT[tt], sparse.vT[tt])
	}
	sameBits(t, "atilde", dense.ATilde(), sparse.ATilde())

	qd := NewQuantifier(dense)
	qs := NewQuantifier(sparse)
	rng := rand.New(rand.NewSource(7))
	m := side * side
	for step := 0; step < 12; step++ { // window end 4: half the steps run the backward phase
		col := randomEmissionColumn(rng, m)
		cd, err := qd.Check(col)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := qs.Check(col)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "check b", cd.BTilde, cs.BTilde)
		sameBits(t, "check c", cd.CTilde, cs.CTilde)
		if err := qd.Commit(col); err != nil {
			t.Fatal(err)
		}
		if err := qs.Commit(col); err != nil {
			t.Fatal(err)
		}
		if qd.LogScale() != qs.LogScale() {
			t.Fatalf("step %d: logScale %v vs %v", step, qd.LogScale(), qs.LogScale())
		}
		curD, curS := qd.Current(), qs.Current()
		sameBits(t, "current b", curD.BTilde, curS.BTilde)
		sameBits(t, "current c", curD.CTilde, curS.CTilde)
	}
}

// TestCheckCurrentBufferOwnership pins the documented scratch contract:
// a Check result survives Commit and Current (separate buffer pairs) and
// is only overwritten by the next Check.
func TestCheckCurrentBufferOwnership(t *testing.T) {
	md := walkModel(t, 4, ModelOptions{})
	q := NewQuantifier(md)
	rng := rand.New(rand.NewSource(3))
	colA := randomEmissionColumn(rng, 16)
	colB := randomEmissionColumn(rng, 16)

	chk, err := q.Check(colA)
	if err != nil {
		t.Fatal(err)
	}
	heldB := chk.BTilde.Clone()
	heldC := chk.CTilde.Clone()
	if err := q.Commit(colA); err != nil {
		t.Fatal(err)
	}
	_ = q.Current()
	sameBits(t, "b after Commit+Current", heldB, chk.BTilde)
	sameBits(t, "c after Commit+Current", heldC, chk.CTilde)

	if _, err := q.Check(colB); err != nil {
		t.Fatal(err)
	}
	if chk.BTilde.EqualApprox(heldB, 0) {
		t.Fatal("next Check did not reuse the scratch buffers")
	}
}

// opaqueProvider hides DistinctMatrices, exercising the probe fallback.
type opaqueProvider struct{ tp TransitionProvider }

func (o opaqueProvider) States() int              { return o.tp.States() }
func (o opaqueProvider) Matrix(t int) *mat.Matrix { return o.tp.Matrix(t) }

// TestKernelProbeFallback: a provider without DistinctMatrices must
// still compile its kernels (via the probe) and agree exactly with the
// lister path, including for a time-varying chain.
func TestKernelProbeFallback(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	walk, err := markov.LazyRandomWalk(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	walk2, err := markov.LazyRandomWalk(g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	vary, err := NewVarying([]*mat.Matrix{walk.Matrix(), walk2.Matrix()})
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRange(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 1, 3)

	ref, err := NewModel(vary, ev)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := NewModel(opaqueProvider{vary}, ev)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := probed.KernelStats(), ref.KernelStats(); got != want {
		t.Fatalf("probe compiled %+v, lister %+v", got, want)
	}

	qr, qp2 := NewQuantifier(ref), NewQuantifier(probed)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 8; step++ {
		col := randomEmissionColumn(rng, 16)
		if err := qr.Commit(col); err != nil {
			t.Fatal(err)
		}
		if err := qp2.Commit(col); err != nil {
			t.Fatal(err)
		}
		cr, cp := qr.Current(), qp2.Current()
		sameBits(t, "probe current b", cr.BTilde, cp.BTilde)
		sameBits(t, "probe current c", cr.CTilde, cp.CTilde)
	}
}

// freshMatrixProvider returns a new matrix pointer on every call — the
// pathological shape that defeats both the lister and the probe, so
// every kernel() lookup misses and compiles call-private.
type freshMatrixProvider struct{ m *mat.Matrix }

func (p freshMatrixProvider) States() int            { return p.m.Rows }
func (p freshMatrixProvider) Matrix(int) *mat.Matrix { return p.m.Clone() }

// TestKernelMissCompilesComplete: unstable matrix pointers stay correct
// — a miss compiles a complete kernel, transpose included, for the
// forward and the backward phase alike — and agree exactly with the
// cached path.
func TestKernelMissCompilesComplete(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	walk, err := markov.LazyRandomWalk(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRange(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 1, 2)
	ref, err := NewModel(NewHomogeneous(walk), ev)
	if err != nil {
		t.Fatal(err)
	}
	missy, err := NewModel(freshMatrixProvider{walk.Matrix()}, ev)
	if err != nil {
		t.Fatal(err)
	}
	qr, qm := NewQuantifier(ref), NewQuantifier(missy)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 7; step++ { // end=2: steps 3.. run the backward phase
		col := randomEmissionColumn(rng, 16)
		if err := qr.Commit(col); err != nil {
			t.Fatal(err)
		}
		if err := qm.Commit(col); err != nil {
			t.Fatal(err)
		}
		cr, cm := qr.Current(), qm.Current()
		sameBits(t, "miss current b", cr.BTilde, cm.BTilde)
		sameBits(t, "miss current c", cr.CTilde, cm.CTilde)
	}
}

// lateMatrixProvider switches to a second matrix past the probe window
// and hides DistinctMatrices, so that matrix is never in the Model's
// kernel map and every step there compiles on a miss.
type lateMatrixProvider struct{ early, late *mat.Matrix }

func (p lateMatrixProvider) States() int { return p.early.Rows }
func (p lateMatrixProvider) Matrix(t int) *mat.Matrix {
	if t < kernelProbeLimit+2 {
		return p.early
	}
	return p.late
}

// TestKernelMissPastProbeWindowConcurrent steps two quantifiers over one
// shared model from two goroutines across the probe limit, for every
// kernel mode. A miss used to hand out a kernel whose transpose the
// product dispatch filled in on first use — a write on a read path that
// was safe only because the kernel was call-private; now nothing on the
// step path writes to a kernel. Run under -race; both goroutines must
// also reproduce the lister-compiled reference bit for bit.
func TestKernelMissPastProbeWindowConcurrent(t *testing.T) {
	g := grid.MustNew(4, 4, 1)
	early, err := markov.LazyRandomWalk(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	late, err := markov.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRange(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The window straddles the switch: forward commits, checks and
	// backward commits all meet the uncached matrix.
	ev := event.MustNewPresence(region, kernelProbeLimit, kernelProbeLimit+4)
	const steps = kernelProbeLimit + 8
	tp := lateMatrixProvider{early.Matrix(), late.Matrix()}
	mats := make([]*mat.Matrix, steps)
	for i := range mats {
		mats[i] = tp.Matrix(i)
	}
	listed, err := NewVarying(mats)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]mat.Vector, steps)
	rng := rand.New(rand.NewSource(13))
	for i := range cols {
		cols[i] = randomEmissionColumn(rng, 16)
	}
	trace := func(md *Model) [][2]mat.Vector {
		q := NewQuantifier(md)
		out := make([][2]mat.Vector, steps)
		for step, col := range cols {
			chk := q.CheckTrusted(col)
			out[step] = [2]mat.Vector{chk.BTilde.Clone(), chk.CTilde.Clone()}
			q.commitTrusted(col)
		}
		return out
	}
	for _, mode := range []KernelMode{KernelAuto, KernelDense, KernelSparse, KernelOracle} {
		ref, err := NewModelWithOptions(listed, ev, ModelOptions{Kernel: mode})
		if err != nil {
			t.Fatal(err)
		}
		want := trace(ref)
		md, err := NewModelWithOptions(tp, ev, ModelOptions{Kernel: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, cached := md.kernels[tp.late]; cached {
			t.Fatal("late matrix was compiled by the probe")
		}
		var got [2][][2]mat.Vector
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = trace(md)
			}()
		}
		wg.Wait()
		for w := range got {
			for step := range want {
				sameBits(t, mode.String()+" check b", got[w][step][0], want[step][0])
				sameBits(t, mode.String()+" check c", got[w][step][1], want[step][1])
			}
		}
	}
}

// TestZeroBlockProductsSkipped: on unique-mid's plan (window 3–7, so
// A_T ≡ 0 until the commit at t = 3 opens the window) 11 commits run 17
// operator products, of which the three over the empty A_T — one banded
// at t = 1, two full-band at t = 2, 3 — are skipped: 12 full-band + 2
// banded are dispatched. The goldens hold the releases to the parent's.
func TestZeroBlockProductsSkipped(t *testing.T) {
	tp, ev := goldenPlans[0].build(t)
	md, err := NewModel(tp, ev)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuantifier(md)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 11; step++ {
		if want := step < 4; q.t > 0 && q.atZero != want {
			t.Fatalf("t=%d: atZero = %v, want %v", q.t, q.atZero, want)
		}
		q.commitTrusted(randomEmissionColumn(rng, md.States()))
	}
	if ks := md.KernelStats(); ks.Blocked != 12 || ks.Banded != 2 {
		t.Fatalf("dispatched blocked/banded = %d/%d, want 12/2", ks.Blocked, ks.Banded)
	}
}

func sameBits(t *testing.T, label string, got, want mat.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}
