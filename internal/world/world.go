// Package world implements the paper's two-possible-world method (§III):
// the state space is doubled into an EVENT-false world and an EVENT-true
// world, and the transition matrix is rewritten (Eqs. 3–8) so that the
// prior probability of an arbitrary PRESENCE/PATTERN event (Lemma III.1)
// and the joint probability of the event with a sequence of perturbed
// observations (Lemmas III.2, III.3) are computed in time linear in the
// event length — instead of enumerating the exponentially many predicate
// combinations.
//
// All heavy objects are kept at m×m by exploiting the block structure of
// the augmented matrices: each 2m×2m transition is
//
//	Mᵗ = [ M·diag(1−ft)   M·diag(ft) ]
//	     [ M·diag(1−tt)   M·diag(tt) ]
//
// for two destination masks ft ("false world mass entering the true
// world") and tt ("true world mass staying true"):
//
//	outside the window:        ft = 0,        tt = 1      (Eqs. 5, 8)
//	PRESENCE, entering window: ft = region,   tt = 1      (Eq. 4)
//	PATTERN,  entering window: ft = region₀,  tt = 1      (Eq. 6)
//	PATTERN,  inside window:   ft = 0,        tt = regionₜ (Eq. 7)
//
// Timestamps are 0-based; step t is the transition from time t to t+1.
package world

import (
	"fmt"

	"priste/internal/event"
	"priste/internal/markov"
	"priste/internal/mat"
)

// TransitionProvider supplies the (possibly time-varying) transition
// matrix for each step. Matrix(t) maps the distribution at time t to time
// t+1 and must be row-stochastic. The returned matrix must not be mutated
// and must remain valid for the provider's lifetime.
type TransitionProvider interface {
	States() int
	Matrix(t int) *mat.Matrix
}

// Homogeneous adapts a time-homogeneous markov.Chain to a
// TransitionProvider (the paper's default setting).
type Homogeneous struct {
	chain *markov.Chain
}

// NewHomogeneous wraps a Markov chain.
func NewHomogeneous(c *markov.Chain) *Homogeneous { return &Homogeneous{chain: c} }

// States implements TransitionProvider.
func (h *Homogeneous) States() int { return h.chain.States() }

// Matrix implements TransitionProvider.
func (h *Homogeneous) Matrix(int) *mat.Matrix { return h.chain.Matrix() }

// DistinctMatrices implements MatrixLister: one matrix for every step.
func (h *Homogeneous) DistinctMatrices() []*mat.Matrix {
	return []*mat.Matrix{h.chain.Matrix()}
}

// Varying is a TransitionProvider backed by an explicit per-step matrix
// list; step t uses Matrices[min(t, len-1)]. It supports the paper's
// footnote 3 (time-varying Markov models).
type Varying struct {
	Matrices []*mat.Matrix
}

// NewVarying validates the matrices and returns a provider.
func NewVarying(ms []*mat.Matrix) (*Varying, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("world: no transition matrices")
	}
	m := ms[0].Rows
	for i, t := range ms {
		if t.Rows != m || t.Cols != m {
			return nil, fmt.Errorf("world: matrix %d is %d×%d, want %d×%d", i, t.Rows, t.Cols, m, m)
		}
		if !t.IsRowStochastic(1e-8) {
			return nil, fmt.Errorf("world: matrix %d is not row-stochastic", i)
		}
	}
	return &Varying{Matrices: ms}, nil
}

// States implements TransitionProvider.
func (v *Varying) States() int { return v.Matrices[0].Rows }

// Matrix implements TransitionProvider.
func (v *Varying) Matrix(t int) *mat.Matrix {
	if t < 0 {
		panic(fmt.Sprintf("world: negative step %d", t))
	}
	if t >= len(v.Matrices) {
		t = len(v.Matrices) - 1
	}
	return v.Matrices[t]
}

// DistinctMatrices implements MatrixLister.
func (v *Varying) DistinctMatrices() []*mat.Matrix { return v.Matrices }

// Model binds an event to a mobility model and precomputes the suffix
// vectors used by both the prior and the streaming quantifier.
type Model struct {
	tp TransitionProvider
	ev event.Event
	m  int

	start, end int

	// vF[t], vT[t] are the two halves of the suffix product
	// (∏_{j=t}^{end-1} Mⱼᵃᵘᵍ)·[0,1]ᵀ for t = 0..end; entry i of vT[t] is
	// Pr(EVENT | world=true at t, u_t = s_i) and vF likewise for the
	// false world.
	vF, vT []mat.Vector

	// mask0 is the initial true-world mask: zero unless the event window
	// includes time 0, in which case it is the region at time 0.
	mask0 mat.Vector

	ones, zeros mat.Vector

	// kernels holds the compiled step kernel of every distinct
	// transition matrix. The map is completed at compile time and never
	// written afterwards, so quantifier reads need no lock.
	opts    ModelOptions
	kernels map[*mat.Matrix]*stepKernel
	kstats  KernelStats

	// kc tallies the dense kernel dispatch decisions of every
	// quantifier over this model (atomic: models are shared across
	// sessions).
	kc kernelCounters
}

// NewModel validates the combination and precomputes suffix vectors with
// default (automatic) kernel compilation.
func NewModel(tp TransitionProvider, ev event.Event) (*Model, error) {
	return NewModelWithOptions(tp, ev, ModelOptions{})
}

// NewModelWithOptions is NewModel with explicit compilation options.
func NewModelWithOptions(tp TransitionProvider, ev event.Event, opts ModelOptions) (*Model, error) {
	m := tp.States()
	if ev.States() != m {
		return nil, fmt.Errorf("world: event over %d states, chain has %d", ev.States(), m)
	}
	start, end := ev.Window()
	md := &Model{
		tp: tp, ev: ev, m: m,
		start: start, end: end,
		ones: mat.Ones(m), zeros: mat.NewVector(m),
		opts: opts,
	}
	md.mask0 = md.zeros
	if start == 0 {
		md.mask0 = ev.RegionAt(0).Mask()
	}
	md.compileKernels()
	md.computeSuffix()
	return md, nil
}

// kernelProbeLimit bounds the Matrix(t) probe used to enumerate the step
// matrices of a provider without DistinctMatrices — and therefore the
// kernels (each carrying a precomputed transpose) such a provider can
// pin. A provider synthesizing a fresh matrix per call retains at most
// this many useless kernels and falls back to per-call compilation.
const kernelProbeLimit = 64

// compileKernels builds the step kernel (CSR form or dense transpose) of
// every distinct transition matrix the provider can return. Providers
// implementing MatrixLister are compiled exhaustively; others are probed
// over the first kernelProbeLimit steps — a matrix first appearing beyond
// the probe window falls back to uncached per-call compilation in
// kernel(), which is correct but allocates.
func (md *Model) compileKernels() {
	var distinct []*mat.Matrix
	if l, ok := md.tp.(MatrixLister); ok {
		distinct = l.DistinctMatrices()
	} else {
		seen := make(map[*mat.Matrix]bool)
		for t := 0; t < kernelProbeLimit; t++ {
			if m := md.tp.Matrix(t); !seen[m] {
				seen[m] = true
				distinct = append(distinct, m)
			}
		}
	}
	md.kernels = make(map[*mat.Matrix]*stepKernel, len(distinct))
	for _, m := range distinct {
		if _, ok := md.kernels[m]; ok {
			continue
		}
		k := compileKernel(m, md.opts)
		md.kernels[m] = k
		md.foldKernelStats(k)
	}
}

func (md *Model) foldKernelStats(k *stepKernel) {
	one := KernelStats{Dense: 1, Density: 1}
	if k.csr != nil {
		one = KernelStats{Sparse: 1, NNZ: int64(k.csr.NNZ()), Density: k.csr.Density()}
	}
	md.kstats = md.kstats.Add(one)
}

// KernelStats reports the compiled step kernels (how many took the
// sparse vs the dense path, and at what density) plus the dense
// dispatch counts accumulated by quantifiers over this model.
func (md *Model) KernelStats() KernelStats {
	ks := md.kstats
	ks.Blocked = md.kc.blocked.Load()
	ks.Banded = md.kc.banded.Load()
	return ks
}

// kernel returns the compiled kernel for the transition from time t to
// t+1. The compile-time map covers every matrix of a MatrixLister
// provider (and the probe window of any other); a miss compiles a
// complete call-private kernel without caching — correct for exotic
// providers at the cost of allocation.
func (md *Model) kernel(t int) *stepKernel {
	m := md.tp.Matrix(t)
	if k, ok := md.kernels[m]; ok {
		return k
	}
	return compileKernel(m, md.opts)
}

// States returns m.
func (md *Model) States() int { return md.m }

// Event returns the bound event.
func (md *Model) Event() event.Event { return md.ev }

// Window returns the event window.
func (md *Model) Window() (start, end int) { return md.start, md.end }

// stepMasks returns the destination masks (ft, tt) for the transition from
// time t to time t+1.
func (md *Model) stepMasks(t int) (ft, tt mat.Vector) {
	dest := t + 1
	if dest < md.start || dest > md.end {
		return md.zeros, md.ones
	}
	if md.ev.Sticky() {
		// PRESENCE: any entry into the region flips to the true world;
		// the true world is absorbing.
		return md.ev.RegionAt(dest).Mask(), md.ones
	}
	// PATTERN: at the window entry the region redirects to the true
	// world; inside the window the true world must keep hitting the
	// region or fall back.
	if dest == md.start {
		return md.ev.RegionAt(dest).Mask(), md.ones
	}
	return md.zeros, md.ev.RegionAt(dest).Mask()
}

// computeSuffix fills vF, vT backwards from the window end.
func (md *Model) computeSuffix() {
	md.vF = make([]mat.Vector, md.end+1)
	md.vT = make([]mat.Vector, md.end+1)
	md.vF[md.end] = mat.NewVector(md.m) // [0]
	md.vT[md.end] = mat.Ones(md.m)      // [1]
	tmp := mat.NewVector(md.m)
	for t := md.end - 1; t >= 0; t-- {
		ft, tt := md.stepMasks(t)
		k := md.kernel(t)
		nf := mat.NewVector(md.m)
		nt := mat.NewVector(md.m)
		// vF[t] = M·((1−ft)∘vF[t+1] + ft∘vT[t+1])
		for i := 0; i < md.m; i++ {
			tmp[i] = (1-ft[i])*md.vF[t+1][i] + ft[i]*md.vT[t+1][i]
		}
		k.mulVecInto(nf, tmp)
		// vT[t] = M·((1−tt)∘vF[t+1] + tt∘vT[t+1])
		for i := 0; i < md.m; i++ {
			tmp[i] = (1-tt[i])*md.vF[t+1][i] + tt[i]*md.vT[t+1][i]
		}
		k.mulVecInto(nt, tmp)
		md.vF[t], md.vT[t] = nf, nt
	}
}

// ATilde returns ã: ãᵢ = Pr(EVENT | u₀ = sᵢ), the per-initial-state event
// probability (Eq. 17 projected to the first m coordinates). The returned
// vector is shared; callers must not mutate it.
func (md *Model) ATilde() mat.Vector {
	a := mat.NewVector(md.m)
	for i := 0; i < md.m; i++ {
		a[i] = (1-md.mask0[i])*md.vF[0][i] + md.mask0[i]*md.vT[0][i]
	}
	return a
}

// Prior computes Pr(EVENT) for a given initial probability (Lemma III.1).
func (md *Model) Prior(pi mat.Vector) (float64, error) {
	if len(pi) != md.m {
		return 0, fmt.Errorf("world: pi length %d want %d", len(pi), md.m)
	}
	if !pi.IsDistribution(1e-8) {
		return 0, fmt.Errorf("world: pi is not a distribution")
	}
	return pi.Dot(md.ATilde()), nil
}
