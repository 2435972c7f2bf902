package world

import (
	"math"
	"sync/atomic"

	"priste/internal/mat"
)

// KernelMode selects how a Model computes its operator products.
type KernelMode int

const (
	// KernelAuto lets the input pick the path of every product. A
	// transition matrix of density at most csrMaxDensity compiles to
	// CSR; a denser one runs the row primitive (mat.MulRowsInto,
	// mat.RowMulInto, the check's rows band-limited while the tracked
	// operator band skips columns). A homogeneous chain whose Kronecker
	// factors reproduce its matrix bit for bit (markov.GaussianChain on
	// a grid) commits through them: two √m×√m passes of the row
	// primitive per product (mat.KronMulInto). The CSR and row paths
	// are bit-identical to KernelOracle; the factored one is held to a
	// bound (see the package doc).
	KernelAuto KernelMode = iota
	// KernelOracle forces plain Go loops everywhere (mat.MulInto,
	// Matrix.MulVecInto, Matrix.VecMulInto) on the same transposed
	// layout: no CSR, no row primitive — so no assembly — no factors
	// and no band limits. It is the reference the equivalence
	// tests, the benchmark's verify phase and the kernel benchmarks
	// measure auto against.
	KernelOracle
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelOracle:
		return "oracle"
	default:
		return "KernelMode(?)"
	}
}

// csrMaxDensity is the density at or below which KernelAuto compiles a
// transition matrix to CSR. CSR multiply-adds carry an index load each,
// so the break-even sits near 0.4–0.5 density; 0.25 leaves margin.
// Local mobility models (random walks, trained chains) sit far below
// it; a Gaussian chain is structurally dense and stays on the dense
// path.
const csrMaxDensity = 0.25

// ModelOptions tunes model compilation.
type ModelOptions struct {
	// Kernel selects auto or the oracle.
	Kernel KernelMode
}

// stepKernel is one compiled transition matrix: the original dense form
// plus either its CSR form and CSR transpose (sparse path) or its dense
// transpose (dense path). Every commit multiplies by Mᵀ and every dense
// check product runs xᵀ·Mᵀ, so the transpose is always built with the
// kernel — once per Model for the kernels in its map, once per call for
// a matrix its provider does not list.
type stepKernel struct {
	dense  *mat.Matrix
	denseT *mat.Matrix // non-nil iff csr == nil
	csr    *mat.CSR    // non-nil on the sparse path
	csrT   *mat.CSR

	// bw is the bandwidth of the transition matrix (largest |i−j| over
	// nonzeros, the same for Mᵀ): the amount each committed step widens
	// the operators' band. Computed for every mode; the non-oracle check
	// rows and CSR commits consume it.
	bw     int
	oracle bool

	// outerT and innerT are the transposed Kronecker factors of M, set
	// under KernelAuto when M = outer ⊗ inner bit for bit: the commit
	// product Mᵀ·op is then (outerᵀ ⊗ innerᵀ)·op, two passes of the row
	// primitive. Checks still use the kernel's M or CSR form.
	outerT, innerT *mat.Matrix
}

// compileKernel builds the complete kernel for one transition matrix.
// outer and inner are the Kronecker factors its chain carries, or nil;
// KernelAuto keeps them only if they reproduce m exactly.
func compileKernel(m *mat.Matrix, opts ModelOptions, outer, inner *mat.Matrix) *stepKernel {
	k := &stepKernel{dense: m, bw: mat.Bandwidth(m), oracle: opts.Kernel == KernelOracle}
	if !k.oracle {
		if isKronecker(m, outer, inner) {
			k.outerT, k.innerT = outer.Transpose(), inner.Transpose()
			// A factor product can underflow to 0 in M while the passes
			// keep that path nonzero, so widen the band to the factors'.
			w := inner.Rows
			k.bw = min(mat.Bandwidth(outer)*w+mat.Bandwidth(inner), m.Rows-1)
		}
		if c := mat.CSRFromDense(m); c.Density() <= csrMaxDensity {
			k.csr = c
		}
	}
	if k.csr != nil {
		k.csrT = k.csr.Transpose()
	} else {
		k.denseT = m.Transpose()
	}
	return k
}

// isKronecker reports whether m[y·w+x][y'·w+x'] is the rounded product
// outer[y][y']·inner[x][x'] for every entry, bit for bit, with w =
// inner.Rows: an O(m²) scan, run once per compiled kernel. Any mismatch
// — a perturbed, sparsified or retrained matrix — keeps m unfactored.
func isKronecker(m, outer, inner *mat.Matrix) bool {
	if outer == nil || inner == nil {
		return false
	}
	h, w := outer.Rows, inner.Rows
	if outer.Cols != h || inner.Cols != w || m.Rows != h*w || m.Cols != h*w {
		return false
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			row := m.Row(y*w + x)
			for y2 := 0; y2 < h; y2++ {
				o := outer.At(y, y2)
				for x2 := 0; x2 < w; x2++ {
					if math.Float64bits(row[y2*w+x2]) != math.Float64bits(o*inner.At(x, x2)) {
						return false
					}
				}
			}
		}
	}
	return true
}

// kernelCounters tallies dense dispatch decisions. A Model is shared
// across sessions, so the counters are atomic.
type kernelCounters struct {
	blocked  atomic.Int64
	factored atomic.Int64
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

// mulInto stores Mᵀ·op into dst — every Commit product: the forward
// blocks are kept transposed, so Xᵀ = Mᵀ·A_Fᵀ has the shape of the
// backward Mᵀ·B₁. op's nonzeros lie within opBand (pass ≥ m−1 when
// full), and opZero reports that op is all-zero — A_T before the window
// opens, or any block after an impossible observation history — whose
// product is all-zero too and is not computed (not counted either).
// scratch is an m×m matrix whose contents are dead: the factored
// product keeps its intermediate there. dst, op and scratch must be
// distinct. All paths but the factored one are bit-identical.
func (k *stepKernel) mulInto(dst, op, scratch *mat.Matrix, opBand int, opZero bool, kc *kernelCounters) {
	switch {
	case k.oracle:
		mat.MulInto(dst, k.denseT, op)
	case opZero:
		dst.Zero()
	case k.outerT != nil:
		mat.KronMulInto(dst, scratch, k.outerT, k.innerT, op)
		kc.factored.Add(1)
	case k.csrT != nil:
		k.csrT.MulMatInto(dst, op, opBand)
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
	// Blocked counts the dense operator products executed through the
	// row primitive, and Factored those run as two passes over a
	// chain's Kronecker factors (CSR and oracle products are not
	// counted). Blocked keeps the name of the register-tiled kernel it
	// used to count.
	Blocked  int64 `json:"blocked"`
	Factored int64 `json:"factored"`
}

// Add merges o into s (entries-weighted density) and returns the result.
func (s KernelStats) Add(o KernelStats) KernelStats {
	se := s.entries()
	oe := o.entries()
	s.Sparse += o.Sparse
	s.Dense += o.Dense
	s.NNZ += o.NNZ
	s.Blocked += o.Blocked
	s.Factored += o.Factored
	if se+oe > 0 {
		s.Density = (float64(s.Density*se) + float64(o.Density*oe)) / (se + oe)
	}
	return s
}

func (s KernelStats) entries() float64 {
	return float64(s.Sparse + s.Dense)
}
