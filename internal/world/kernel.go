package world

import (
	"sync/atomic"

	"priste/internal/mat"
)

// KernelMode selects how a Model compiles its per-timestamp transition
// matrices into step kernels.
type KernelMode int

const (
	// KernelAuto compiles a matrix to CSR when its density is at or
	// below the sparse threshold and keeps it dense otherwise. The two
	// paths are bit-for-bit equivalent (see mat.CSR), so the choice is
	// purely a performance decision.
	KernelAuto KernelMode = iota
	// KernelDense forces the dense kernels: every product is the row
	// primitive (mat.MulRowsInto, mat.RowMulInto), band-limited while
	// the tracked operator bandwidth beats dense flops
	// (mat.MulBandInto). Both forms produce bit-identical results.
	KernelDense
	// KernelSparse forces CSR regardless of density (test mode; a dense
	// matrix through CSR is slower, not wrong).
	KernelSparse
	// KernelOracle forces plain Go loops everywhere (mat.MulInto,
	// Matrix.MulVecInto, Matrix.VecMulInto) on the same transposed
	// layout: no CSR, no row primitive — so no assembly — and no banded
	// dispatch. It is the bit-identical oracle the cross-kernel
	// equivalence tests, the benchmark's verify phase and BENCH kernel
	// comparisons measure the other paths against.
	KernelOracle
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelDense:
		return "dense"
	case KernelSparse:
		return "sparse"
	case KernelOracle:
		return "oracle"
	default:
		return "KernelMode(?)"
	}
}

// DefaultSparseThreshold is the density at or below which KernelAuto
// compiles a transition matrix to CSR. CSR multiply-adds carry an index
// load each, so the break-even sits near 0.4–0.5 density; 0.25 leaves
// margin. Local mobility models (random walks, trained chains, truncated
// Gaussian kernels) sit far below it; an untruncated Gaussian chain is
// structurally dense and stays on the dense path.
const DefaultSparseThreshold = 0.25

// ModelOptions tunes model compilation.
type ModelOptions struct {
	// Kernel selects the transition-kernel compilation mode.
	Kernel KernelMode
	// SparseThreshold overrides DefaultSparseThreshold for KernelAuto;
	// zero or negative uses the default.
	SparseThreshold float64
	// Shadow additionally compiles float32 copies of the step kernels,
	// enabling the quantifier's float32 shadow check path (ShadowCheck):
	// candidate checks run against float32 operators and are accepted or
	// rejected directly when the qp decision margin exceeds the
	// certified error bound, with exact float64 recompute on ambiguous
	// margins. Commit always runs exact float64.
	Shadow bool
}

func (o ModelOptions) threshold() float64 {
	if o.SparseThreshold > 0 {
		return o.SparseThreshold
	}
	return DefaultSparseThreshold
}

// MatrixLister is an optional TransitionProvider extension enumerating
// every distinct matrix the provider can return. Model compilation uses
// it to build the complete step-kernel set (CSR forms and transposes)
// up front, keeping the quantifier hot path lock- and allocation-free.
// Both built-in providers implement it; a provider that does not is
// probed over an initial window and falls back to per-call compilation
// beyond it.
type MatrixLister interface {
	DistinctMatrices() []*mat.Matrix
}

// stepKernel is one compiled transition matrix: the original dense form
// plus either its CSR form and CSR transpose (sparse path) or its dense
// transpose (dense path). Every commit multiplies by Mᵀ and every dense
// check product runs xᵀ·Mᵀ, so the transpose is always built with the
// kernel — once per Model for the kernels in its map, once per call for
// a matrix a provider first shows past the probe window.
type stepKernel struct {
	dense  *mat.Matrix
	denseT *mat.Matrix // non-nil iff csr == nil
	csr    *mat.CSR    // non-nil on the sparse path
	csrT   *mat.CSR

	// bw is the bandwidth of the transition matrix (largest |i−j| over
	// nonzeros, the same for Mᵀ): the amount each committed step widens
	// the operators' band. Computed for every mode; only the dense
	// non-oracle dispatch consumes it.
	bw     int
	oracle bool

	// float32 shadow forms (ModelOptions.Shadow only).
	m32 *mat.Matrix32
	c32 *mat.CSR32
}

// compileKernel builds the complete kernel for one transition matrix.
func compileKernel(m *mat.Matrix, opts ModelOptions) *stepKernel {
	k := &stepKernel{dense: m, bw: mat.Bandwidth(m)}
	switch opts.Kernel {
	case KernelDense:
	case KernelOracle:
		k.oracle = true
	case KernelSparse:
		k.csr = mat.CSRFromDense(m)
	default:
		if c := mat.CSRFromDense(m); c.Density() <= opts.threshold() {
			k.csr = c
		}
	}
	if k.csr != nil {
		k.csrT = k.csr.Transpose()
	} else {
		k.denseT = m.Transpose()
	}
	if opts.Shadow {
		if k.csr != nil {
			k.c32 = k.csr.Shadow32()
		} else {
			// Transition entries live in [0,1]: no rescale needed.
			k.m32 = mat.Shadow32Scaled(m, 1)
		}
	}
	return k
}

// kernelCounters tallies dense dispatch decisions. A Model is shared
// across sessions, so the counters are atomic.
type kernelCounters struct {
	blocked atomic.Int64
	banded  atomic.Int64
}

// bandedWins reports whether a banded product over bands (aBand, bBand)
// beats the full-band row primitive on an m×m product. The banded
// scatter costs at least 2× per multiply-add what the primitive does,
// so the band wins while its flop count is under half of m³. Bands at
// or beyond m−1 are full rows — banded degenerates to a slower loop.
func bandedWins(m, aBand, bBand int) bool {
	if aBand >= m-1 && bBand >= m-1 {
		return false
	}
	ka := min(aBand, m-1)
	kb := min(bBand, m-1)
	flops := int64(m) * int64(2*ka+1) * int64(2*kb+1)
	return 2*flops < int64(m)*int64(m)*int64(m)
}

// mulVecInto stores M·x into dst — as xᵀ·Mᵀ within M's band on the
// dense non-oracle path. dst must not alias x.
func (k *stepKernel) mulVecInto(dst, x mat.Vector) {
	switch {
	case k.csr != nil:
		k.csr.MulVecInto(dst, x)
	case k.oracle:
		k.dense.MulVecInto(dst, x)
	default:
		mat.RowMulInto(dst, x, k.denseT, k.bw)
	}
}

// mulVec2Into stores M·x0 into dst0 and M·x1 into dst1 — on the dense
// non-oracle path as the two rows x0ᵀ·Mᵀ, x1ᵀ·Mᵀ of one register tile.
// Neither dst may alias an x.
func (k *stepKernel) mulVec2Into(dst0, dst1, x0, x1 mat.Vector) {
	if k.csr != nil || k.oracle {
		k.mulVecInto(dst0, x0)
		k.mulVecInto(dst1, x1)
		return
	}
	mat.RowMul2Into(dst0, dst1, x0, x1, k.denseT, k.bw)
}

// mulVec32Into stores M·x into dst through the float32 shadow kernel
// with float64 accumulation, reporting whether a shadow form exists.
func (k *stepKernel) mulVec32Into(dst, x mat.Vector) bool {
	if k.c32 != nil {
		k.c32.MulVecInto(dst, x)
		return true
	}
	if k.m32 != nil {
		k.m32.MulVecInto(dst, x)
		return true
	}
	return false
}

// mulInto stores Mᵀ·op into dst — every Commit product: the forward
// blocks are kept transposed, so Xᵀ = Mᵀ·A_Fᵀ has the shape of the
// backward Mᵀ·B₁. op's nonzeros lie within opBand (pass ≥ m−1 when
// full), and opZero reports that op is all-zero — A_T before the window
// opens, or any block after an impossible observation history — whose
// product is all-zero too and is not computed (not counted either).
// dst must not alias op. All paths are bit-identical.
func (k *stepKernel) mulInto(dst, op *mat.Matrix, opBand int, opZero bool, kc *kernelCounters) {
	m := op.Rows
	switch {
	case k.oracle:
		mat.MulInto(dst, k.denseT, op)
	case opZero:
		dst.Zero()
	case k.csrT != nil:
		k.csrT.MulMatInto(dst, op, opBand)
	case bandedWins(m, k.bw, opBand):
		mat.MulBandInto(dst, k.denseT, op, k.bw, min(opBand, m-1))
		kc.banded.Add(1)
	default:
		mat.MulRowsInto(dst, k.denseT, op)
		kc.blocked.Add(1)
	}
}

// KernelStats summarises a model's (or plan's) compiled step kernels and
// the dense dispatch decisions taken so far.
type KernelStats struct {
	// Sparse and Dense count compiled kernels by path.
	Sparse int `json:"sparse"`
	Dense  int `json:"dense"`
	// NNZ is the total nonzeros retained across sparse kernels.
	NNZ int64 `json:"nnz"`
	// Density is the mean per-kernel density; a dense-path kernel
	// counts as 1 regardless of its zero pattern.
	Density float64 `json:"density"`
	// Blocked and Banded count the dense operator products executed
	// full-band through the row primitive and band-limited through the
	// banded kernel (CSR and oracle products are not counted). Blocked
	// keeps the name of the register-tiled kernel it used to count.
	Blocked int64 `json:"blocked"`
	Banded  int64 `json:"banded"`
}

// Add merges o into s (entries-weighted density) and returns the result.
func (s KernelStats) Add(o KernelStats) KernelStats {
	se := s.entries()
	oe := o.entries()
	s.Sparse += o.Sparse
	s.Dense += o.Dense
	s.NNZ += o.NNZ
	s.Blocked += o.Blocked
	s.Banded += o.Banded
	if se+oe > 0 {
		s.Density = (float64(s.Density*se) + float64(o.Density*oe)) / (se + oe)
	}
	return s
}

func (s KernelStats) entries() float64 {
	return float64(s.Sparse + s.Dense)
}
