package world

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
)

// walkModel builds a model over a structurally sparse mobility chain
// (lazy random walk: ≤5 nonzeros per row).
func walkModel(t *testing.T, side int) *Model {
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
	md, err := NewModel(NewHomogeneous(chain), ev)
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
	if ks.NNZ == 0 || ks.Density <= 0 || ks.Density > csrMaxDensity {
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
}

// TestKernelPathsBitIdentical reaches each of auto's three operator
// paths through the input that selects it and diffs it against the
// oracle over the same input, through the window entry, the in-window
// updates, a forced renormalisation and the backward phase: every Check
// and Current b̃/c̃, LogScale and the fingerprint. KernelStats must show
// the path was taken. The CSR and row paths are held to the
// oracle bit for bit — the property that lets release sequences,
// fingerprints and restart replay move between a path and the oracle;
// the factored path is held to TestFactoredMatchesOracle's bound.
func TestKernelPathsBitIdentical(t *testing.T) {
	g := grid.MustNew(10, 10, 1)
	m := g.States()
	gauss, err := markov.GaussianChain(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	unfactored, err := NewVarying([]*mat.Matrix{gauss.Matrix()})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := markov.LazyRandomWalk(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	region, err := grid.RegionRange(m, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.MustNewPresence(region, 3, 7)

	for _, tc := range []struct {
		path string
		tp   TransitionProvider
		took func(KernelStats) bool
	}{
		// The chain's Kronecker factors reproduce its matrix.
		{"factored", NewHomogeneous(gauss), func(ks KernelStats) bool {
			return ks.Factored > 0 && ks.Blocked == 0 && ks.Sparse == 0
		}},
		// The same matrix without its factors: the row primitive.
		{"row", unfactored, func(ks KernelStats) bool {
			return ks.Blocked > 0 && ks.Factored == 0 && ks.Sparse == 0
		}},
		// A random walk is sparse enough for CSR.
		{"csr", NewHomogeneous(walk), func(ks KernelStats) bool {
			return ks.Sparse == 1 && ks.Dense == 0 && ks.Blocked+ks.Factored == 0
		}},
	} {
		t.Run(tc.path, func(t *testing.T) {
			auto, err := NewModel(tc.tp, ev)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewModelWithOptions(tc.tp, ev, ModelOptions{Kernel: KernelOracle})
			if err != nil {
				t.Fatal(err)
			}
			var gaps gapTracker
			dt := depthTracker{m: m}
			same := func(label string, got, want mat.Vector) {
				t.Helper()
				if tc.path == "factored" {
					gaps.within(t, label, got, want, dt.bound())
					return
				}
				sameBits(t, label, got, want)
			}
			qa, qo := NewQuantifier(auto), NewQuantifier(oracle)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 12; step++ {
				col := randomEmissionColumn(rng, m)
				if step == 2 {
					col.Scale(1e-130)
				}
				ca, co := qa.CheckTrusted(col), qo.CheckTrusted(col)
				same("check b", ca.BTilde, co.BTilde)
				same("check c", ca.CTilde, co.CTilde)
				before := qo.LogScale()
				qa.CommitTaggedTrusted(col, uint64(step)+1, step)
				qo.CommitTaggedTrusted(col, uint64(step)+1, step)
				dt.commit(qo.LogScale() != before)
				la, lo := qa.LogScale(), qo.LogScale()
				tol := 0.0
				if tc.path == "factored" {
					tol = 2*dt.bound() + float64(dt.renorms)*0x1p-52*math.Abs(lo)
				}
				if math.Abs(la-lo) > tol {
					t.Fatalf("step %d: LogScale %v, oracle %v", step, la, lo)
				}
				if qa.HistoryFingerprint() != qo.HistoryFingerprint() {
					t.Fatalf("step %d: fingerprint diverged", step)
				}
				cura, curo := qa.Current(), qo.Current()
				same("current b", cura.BTilde, curo.BTilde)
				same("current c", cura.CTilde, curo.CTilde)
			}
			if dt.renorms == 0 {
				t.Fatal("the session never renormalised")
			}
			ks := auto.KernelStats()
			if !tc.took(ks) {
				t.Fatalf("auto compiled and dispatched %+v: not the %s path", ks, tc.path)
			}
			t.Logf("%+v", ks)
		})
	}
}

// TestCheckCurrentBufferOwnership pins the documented scratch contract:
// a Check result survives Commit and Current (separate buffer pairs) and
// is only overwritten by the next Check.
func TestCheckCurrentBufferOwnership(t *testing.T) {
	md := walkModel(t, 4)
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

// freshMatrixProvider lists no matrix and returns a new matrix pointer
// on every call — the worst break of the DistinctMatrices contract: every
// kernel() lookup misses and compiles call-private.
type freshMatrixProvider struct{ m *mat.Matrix }

func (p freshMatrixProvider) States() int                     { return p.m.Rows }
func (p freshMatrixProvider) Matrix(int) *mat.Matrix          { return p.m.Clone() }
func (p freshMatrixProvider) DistinctMatrices() []*mat.Matrix { return nil }

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

// lateMatrixProvider switches to a second matrix from step lateAt on but
// lists only the first, so the second is never in the Model's kernel
// map and every step there compiles on a miss.
type lateMatrixProvider struct{ early, late *mat.Matrix }

const lateAt = 4

func (p lateMatrixProvider) States() int { return p.early.Rows }
func (p lateMatrixProvider) Matrix(t int) *mat.Matrix {
	if t < lateAt {
		return p.early
	}
	return p.late
}
func (p lateMatrixProvider) DistinctMatrices() []*mat.Matrix { return []*mat.Matrix{p.early} }

// TestKernelMissConcurrent steps two quantifiers over one shared model
// from two goroutines across the switch to an unlisted matrix, on auto
// and the oracle. A miss used to hand out a kernel whose transpose the
// product dispatch filled in on first use — a write on a read path that
// was safe only because the kernel was call-private; now nothing on the
// step path writes to a kernel. Run under -race; both goroutines must
// also reproduce a reference that lists every matrix, bit for bit.
func TestKernelMissConcurrent(t *testing.T) {
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
	ev := event.MustNewPresence(region, lateAt-2, lateAt+2)
	const steps = lateAt + 6
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
	for _, mode := range []KernelMode{KernelAuto, KernelOracle} {
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
			t.Fatal("the unlisted matrix was compiled")
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
// operator products, of which the three over the empty A_T are skipped
// and 14 dispatched: all 14 through the chain's Kronecker factors, or,
// on the same matrix without its factors, all 14 through the row
// primitive. The goldens hold the releases to their traces.
func TestZeroBlockProductsSkipped(t *testing.T) {
	for _, tc := range []struct {
		run  goldenRun
		want KernelStats
	}{
		{goldenRun{name: "auto"}, KernelStats{Factored: 14}},
		{goldenRun{name: "dense", varying: true}, KernelStats{Blocked: 14}},
	} {
		md := goldenPlans[0].model(t, tc.run)
		q := NewQuantifier(md)
		rng := rand.New(rand.NewSource(17))
		for step := 0; step < 11; step++ {
			if want := step < 4; q.t > 0 && q.atZero != want {
				t.Fatalf("%s t=%d: atZero = %v, want %v", tc.run.name, q.t, q.atZero, want)
			}
			q.commitTrusted(randomEmissionColumn(rng, md.States()))
		}
		ks := md.KernelStats()
		if ks.Blocked != tc.want.Blocked || ks.Factored != tc.want.Factored {
			t.Fatalf("%s dispatched blocked/factored = %d/%d, want %d/%d", tc.run.name,
				ks.Blocked, ks.Factored, tc.want.Blocked, tc.want.Factored)
		}
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
