package world

import (
	"fmt"
	"math"
	"sync/atomic"

	"priste/internal/mat"
	"priste/internal/par"
	"priste/internal/qp"
)

// Quantifier is the streaming privacy-loss quantifier of Algorithm 2: it
// maintains the forward operator A = [A_F | A_T] ∈ R^{m×2m} mapping an
// unknown initial probability π to the augmented forward vector, and —
// after the event window — the backward accumulator B (a single m×m block,
// because the augmented after-event factors are block-diagonal with equal
// blocks).
//
// For each timestamp the caller first calls Check with a candidate
// emission column (the quantities ã, b̃, c̃ of Theorem IV.1 for the
// candidate observation) and, once a candidate is accepted, Commit with
// the released observation's emission column.
//
// Layout: the forward blocks are stored transposed (af[j][i] =
// A_F[i][j], likewise at), so that everything the quantifier computes is
// one shape — a row vector times a row-major matrix, mat's row
// primitive. A check product A·u is uᵀ·Aᵀ, M·x is xᵀ·Mᵀ through the
// step kernel's transpose, zᵀ·B₁ already had the shape; the forward
// commit Xᵀ = Mᵀ·A_Fᵀ is m such rows, exactly like the backward Mᵀ·B₁.
// Each output element is still the same ascending-k chain of the same
// factors, so the layout moves no bit.
//
// To avoid underflow over long horizons the internal operators are
// renormalised whenever their magnitude drifts out of a wide safe band
// (see renormalise); b̃ and c̃ therefore carry a shared unknown scale
// exp(LogScale), which cancels in the Theorem IV.1 conditions and is
// exposed for callers needing absolute probabilities.
type Quantifier struct {
	md *Model

	af, at *mat.Matrix // committed forward blocks, transposed, m×m each
	b1     *mat.Matrix // backward block, valid once t > end
	t      int         // next timestamp to be observed (0-based)

	logScale float64

	// fp is the rolling FNV-1a fingerprint of the committed release tags
	// (see CommitTagged); it identifies the committed-column history for
	// the certified-release cache.
	fp uint64

	atilde mat.Vector

	// fwdBand and b1Band track the live bandwidth of the forward
	// operators and the backward accumulator: each committed step widens
	// the band by the step matrix's bandwidth (clamped at m−1 = full).
	// The dense dispatch uses them to run banded products while they
	// beat dense flops. fwdMax/b1Max hold the largest absolute
	// operator entry after the latest commit (a free byproduct of the
	// commit write passes) — the normalisation scale for the float32
	// shadow copies. afZero/atZero record, from the same passes, that a
	// forward block was written all-zero (A_T until the window opens):
	// commit and check products over it are zeros and are skipped.
	fwdBand, b1Band int
	fwdMax, b1Max   float64
	afZero, atZero  bool

	// shadow holds the float32 operator copies for the shadow check
	// path (nil unless ModelOptions.Shadow).
	shadow *shadowState

	// scratch. Check and Current are zero-allocation: each writes its
	// b̃/c̃ into its own pair of reusable buffers (checkB/checkC and
	// curB/curC), which the returned ReleaseCheck aliases — see the
	// ownership contract on Check. tmp1/tmp2/uvec/uF hold row-product
	// intermediates; mx/my the Commit matrix products.
	tmp1, tmp2, uvec, uF mat.Vector
	checkB, checkC       mat.Vector
	curB, curC           mat.Vector
	mx, my               *mat.Matrix
}

// shadowState carries the float32 copies of the forward operators (in
// the quantifier's transposed layout) and backward accumulator consumed
// by ShadowCheck. Copies are converted lazily (dirty flags set by
// Commit) and normalised by the operator's
// maximum entry — the float64 operators roam a magnitude band float32
// cannot represent. The common scale factor cancels in the Theorem IV.1
// conditions, which are homogeneous in (b̃, c̃).
type shadowState struct {
	af32, at32, b132  *mat.Matrix32
	fwdDirty, b1Dirty bool
}

// NewQuantifier returns a fresh quantifier at time 0.
func NewQuantifier(md *Model) *Quantifier {
	m := md.m
	q := &Quantifier{
		md:     md,
		fp:     fpOffset,
		af:     mat.NewMatrix(m, m),
		at:     mat.NewMatrix(m, m),
		b1:     mat.Identity(m),
		b1Max:  1,
		atilde: md.ATilde(),
		tmp1:   mat.NewVector(m),
		tmp2:   mat.NewVector(m),
		uvec:   mat.NewVector(m),
		uF:     mat.NewVector(m),
		checkB: mat.NewVector(m),
		checkC: mat.NewVector(m),
		curB:   mat.NewVector(m),
		curC:   mat.NewVector(m),
		mx:     mat.NewMatrix(m, m),
		my:     mat.NewMatrix(m, m),
	}
	if md.opts.Shadow {
		q.shadow = &shadowState{
			af32:     mat.NewMatrix32(m, m),
			at32:     mat.NewMatrix32(m, m),
			b132:     mat.NewMatrix32(m, m),
			fwdDirty: true,
			b1Dirty:  true,
		}
	}
	return q
}

// T returns the next timestamp to be observed.
func (q *Quantifier) T() int { return q.t }

// LogScale returns the accumulated log of the normalisation factors; the
// true joint probabilities are the reported b̃/c̃ times exp(LogScale).
func (q *Quantifier) LogScale() float64 { return q.logScale }

// ATilde returns ã (shared storage; do not mutate).
func (q *Quantifier) ATilde() mat.Vector { return q.atilde }

// Check computes the Theorem IV.1 vectors for observing a candidate with
// emission column emis (emis[i] = Pr(o | u_t = s_i)) at the quantifier's
// current timestamp, without committing it.
//
// Zero-allocation contract: the returned b̃/c̃ alias buffers owned by the
// quantifier and are overwritten by the next Check call (Commit and
// Current leave them intact). The LPPM candidate loop calls Check once
// per candidate and consumes the result before the next draw, so the
// reuse is free; callers needing the vectors past the next Check must
// clone them.
func (q *Quantifier) Check(emis mat.Vector) (qp.ReleaseCheck, error) {
	if err := q.validateEmission(emis); err != nil {
		return qp.ReleaseCheck{}, err
	}
	return q.CheckTrusted(emis), nil
}

// CheckTrusted is Check without the O(m) emission validation sweep, for
// callers whose columns come from an already-validated source (the
// engine's emission tables validate at build; see lppm.EmissionTable).
// Same zero-allocation buffer contract as Check.
func (q *Quantifier) CheckTrusted(emis mat.Vector) qp.ReleaseCheck {
	m := q.md.m
	b, c := q.checkB, q.checkC
	switch {
	case q.t == 0:
		// b̃ᵢ = emisᵢ·ãᵢ, c̃ᵢ = emisᵢ.
		for i := 0; i < m; i++ {
			b[i] = emis[i] * q.atilde[i]
			c[i] = emis[i]
		}
	case q.t <= q.md.end:
		// b̃ = A_F·uF + A_T·uT and c̃ = A_F·u + A_T·u, where u = M·emis
		// and uF = M·((1−ft)∘(emis∘vF) + ft∘(emis∘vT)), uT likewise with
		// the true-world mask. Rows against the same matrix share a
		// register tile: (uF, u) through Mᵀ, then (uF, u) against A_Fᵀ
		// and (uT, u) against A_Tᵀ.
		ft, tt := q.md.stepMasks(q.t - 1)
		k := q.md.kernel(q.t - 1)
		vF, vT := q.md.vF[q.t], q.md.vT[q.t]
		for i := 0; i < m; i++ {
			q.tmp1[i] = emis[i] * blend(ft, vF, vT, i)
		}
		k.mulVec2Into(q.uF, q.uvec, q.tmp1, emis)
		q.rowMul2(b, c, q.uF, q.uvec, q.af, q.fwdBand, q.afZero)
		if !q.skips(q.atZero) {
			for i := 0; i < m; i++ {
				q.tmp1[i] = emis[i] * blend(tt, vF, vT, i)
			}
			k.mulVecInto(q.uF, q.tmp1)
			q.rowMul2(q.tmp1, q.tmp2, q.uF, q.uvec, q.at, q.fwdBand, q.atZero)
			b.AddInto(b, q.tmp1)
			c.AddInto(c, q.tmp2)
		}
	default: // q.t > end
		k := q.md.kernel(q.t - 1)
		k.mulVecInto(q.uvec, emis)
		z := q.rowMul(q.tmp2, q.uvec, q.b1, q.b1Band, q.b1Max == 0) // (M·emis)ᵀ·B₁
		q.rowMul(b, z, q.at, q.fwdBand, q.atZero)
		q.rowMul(c, z, q.af, q.fwdBand, q.afZero)
		c.AddInto(c, b)
	}
	return qp.ReleaseCheck{ATilde: q.atilde, BTilde: b, CTilde: c}
}

// skips reports whether products over a block are skipped: the block is
// known to be all-zero, and the kernel is not the oracle, which computes
// them anyway as the independent reference. A skipped product is zeros,
// and adding zeros to the engine's non-negative sums moves no bit.
func (q *Quantifier) skips(zero bool) bool {
	return zero && q.md.opts.Kernel != KernelOracle
}

// rowMul stores xᵀ·op into dst for one of the quantifier's operators as
// stored (af, at or b1) with its tracked band and zero flag: zeros for a
// skipped block, else the row primitive (band-limited while that skips
// columns), or the plain Go loop in oracle mode. dst must not alias x.
func (q *Quantifier) rowMul(dst, x mat.Vector, op *mat.Matrix, band int, zero bool) mat.Vector {
	switch {
	case q.md.opts.Kernel == KernelOracle:
		return op.VecMulInto(dst, x)
	case zero:
		clear(dst)
		return dst
	}
	return mat.RowMulInto(dst, x, op, band)
}

// rowMul2 is rowMul for two rows against the same operator: x0ᵀ·op into
// dst0 and x1ᵀ·op into dst1, through the register tile.
func (q *Quantifier) rowMul2(dst0, dst1, x0, x1 mat.Vector, op *mat.Matrix, band int, zero bool) {
	switch {
	case q.md.opts.Kernel == KernelOracle:
		op.VecMulInto(dst0, x0)
		op.VecMulInto(dst1, x1)
	case zero:
		clear(dst0)
		clear(dst1)
	default:
		mat.RowMul2Into(dst0, dst1, x0, x1, op, band)
	}
}

// Current returns the Theorem IV.1 vectors for the already-committed
// observation prefix (no candidate). Before any commit, b̃ = ã and c̃ = 1.
// Like Check, the returned b̃/c̃ alias quantifier-owned buffers (a
// separate pair, so a held Check result survives a Commit+Current) and
// are overwritten by the next Current call.
func (q *Quantifier) Current() qp.ReleaseCheck {
	b, c := q.curB, q.curC
	switch {
	case q.t == 0:
		copy(b, q.atilde)
		for i := range c {
			c[i] = 1
		}
	case q.t-1 <= q.md.end:
		// b̃ = A_F·vF + A_T·vT, c̃ = A_F·1 + A_T·1.
		vF, vT := q.md.vF[q.t-1], q.md.vT[q.t-1]
		q.rowMul2(b, c, vF, q.md.ones, q.af, q.fwdBand, q.afZero)
		if !q.skips(q.atZero) {
			q.rowMul2(q.tmp1, q.tmp2, vT, q.md.ones, q.at, q.fwdBand, q.atZero)
			b.AddInto(b, q.tmp1)
			c.AddInto(c, q.tmp2)
		}
	default:
		z := q.rowMul(q.tmp2, q.md.ones, q.b1, q.b1Band, q.b1Max == 0)
		q.rowMul(b, z, q.at, q.fwdBand, q.atZero)
		q.rowMul(c, z, q.af, q.fwdBand, q.afZero)
		c.AddInto(c, b)
	}
	return qp.ReleaseCheck{ATilde: q.atilde, BTilde: b, CTilde: c}
}

// Commit folds the released observation's emission column into the
// quantifier state and advances time. Each branch computes the largest
// absolute operator entry as a byproduct of its final write pass, so the
// renormalisation check costs no extra sweep.
func (q *Quantifier) Commit(emis mat.Vector) error {
	if err := q.validateEmission(emis); err != nil {
		return err
	}
	q.commitTrusted(emis)
	return nil
}

// commitTrusted is Commit without the emission validation sweep.
func (q *Quantifier) commitTrusted(emis mat.Vector) {
	m := q.md.m
	var scale float64
	switch {
	case q.t == 0:
		mask0 := q.md.mask0
		q.af.Zero()
		q.at.Zero()
		var fMax, tMax float64
		for i := 0; i < m; i++ {
			f := (1 - mask0[i]) * emis[i]
			tr := mask0[i] * emis[i]
			q.af.Set(i, i, f)
			q.at.Set(i, i, tr)
			fMax = math.Max(fMax, math.Abs(f))
			tMax = math.Max(tMax, math.Abs(tr))
		}
		scale = math.Max(fMax, tMax)
		q.afZero, q.atZero = fMax == 0, tMax == 0
		q.fwdBand = 0
		q.fwdMax = scale
		if q.shadow != nil {
			q.shadow.fwdDirty = true
		}
	case q.t <= q.md.end:
		ft, tt := q.md.stepMasks(q.t - 1)
		k := q.md.kernel(q.t - 1)
		k.mulInto(q.mx, q.af, q.fwdBand, q.afZero, &q.md.kc) // Xᵀ = Mᵀ·A_Fᵀ
		k.mulInto(q.my, q.at, q.fwdBand, q.atZero, &q.md.kc) // Yᵀ = Mᵀ·A_Tᵀ
		scale, q.afZero, q.atZero = q.maskAndScale(ft, tt, emis)
		q.fwdBand = min(q.fwdBand+k.bw, m-1)
		q.fwdMax = scale
		if q.shadow != nil {
			q.shadow.fwdDirty = true
		}
	default: // q.t > end: B₁ ← diag(emis)·Mᵀ·B₁
		k := q.md.kernel(q.t - 1)
		k.mulInto(q.mx, q.b1, q.b1Band, q.b1Max == 0, &q.md.kc)
		scale = mat.ScaleRowsMaxInto(q.b1, q.mx, emis)
		q.b1Band = min(q.b1Band+k.bw, m-1)
		q.b1Max = scale
		if q.shadow != nil {
			q.shadow.b1Dirty = true
		}
	}
	q.t++
	q.renormalise(scale)
}

// maskFlopsCutoff is the multiply-add count above which maskAndScale
// splits its rows across CPUs: with the matrix products on the sparse
// path this O(m²) loop dominates Commit, and at the paper's m=400 the
// 4·m² ≈ 6.4·10⁵ multiply-adds comfortably amortise goroutine start-up.
const maskFlopsCutoff = 1 << 17

// maskAndScale folds the step masks and the emission column into the
// forward blocks: A_F' = X·diag(1−ft) + Y·diag(1−tt), A_T' = X·diag(ft)
// + Y·diag(tt), both column-scaled by the emission — row scalings of the
// transposed blocks — and returns the largest absolute entry written and
// whether each block came out all-zero (fused so renormalisation and the
// zero-block skips need no second sweep of the operators). Row tiles go
// through the shared pool with fixed boundaries and a single writer per
// row, so the split is bit-deterministic; the max and zero reductions
// are exact under any split. The serial path materialises no closure
// (commit stays allocation-free).
func (q *Quantifier) maskAndScale(ft, tt, emis mat.Vector) (scale float64, afZero, atZero bool) {
	m := q.md.m
	if !par.Default().Parallel(m, 4*int64(m)*int64(m), maskFlopsCutoff) {
		fMax, tMax := q.maskRows(ft, tt, emis, 0, m)
		return math.Max(fMax, tMax), fMax == 0, tMax == 0
	}
	var afNonzero, atNonzero atomic.Bool
	scale = par.Default().ForMax(m, func(lo, hi int) float64 {
		fMax, tMax := q.maskRows(ft, tt, emis, lo, hi)
		if fMax != 0 {
			afNonzero.Store(true)
		}
		if tMax != 0 {
			atNonzero.Store(true)
		}
		return math.Max(fMax, tMax)
	})
	return scale, !afNonzero.Load(), !atNonzero.Load()
}

// maskRows runs the fused mask+emission+max loop over rows [lo,hi) of
// the transposed blocks — row j carries column j's mask and emission —
// and returns the largest absolute entry written to each block.
func (q *Quantifier) maskRows(ft, tt, emis mat.Vector, lo, hi int) (fMax, tMax float64) {
	m := q.md.m
	for j := lo; j < hi; j++ {
		xr := q.mx.Row(j)
		yr := q.my.Row(j)
		fr := q.af.Row(j)
		trw := q.at.Row(j)
		ftj, ttj, e := ft[j], tt[j], emis[j]
		for i := 0; i < m; i++ {
			f := (float64(xr[i]*(1-ftj)) + float64(yr[i]*(1-ttj))) * e
			tr := (float64(xr[i]*ftj) + float64(yr[i]*ttj)) * e
			fr[i] = f
			trw[i] = tr
			if f = math.Abs(f); f > fMax {
				fMax = f
			}
			if tr = math.Abs(tr); tr > tMax {
				tMax = tr
			}
		}
	}
	return fMax, tMax
}

// FNV-1a parameters for the rolling history fingerprint.
const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

// FingerprintSeed is the rolling history fingerprint of an empty release
// history (the FNV-1a offset basis). A quantifier that has committed
// nothing reports exactly this value.
const FingerprintSeed uint64 = fpOffset

// fpFold mixes one 64-bit word into the fingerprint byte-wise.
func fpFold(fp, word uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		fp ^= (word >> shift) & 0xff
		fp *= fpPrime
	}
	return fp
}

// FingerprintFold folds one (alphaBits, obs) release tag into a rolling
// history fingerprint, exactly as CommitTagged does. It lets persistence
// layers verify a tag log's fingerprint chain without instantiating a
// quantifier: folding a session's tags in order from FingerprintSeed must
// reproduce the fingerprint its quantifiers report.
func FingerprintFold(fp, alphaBits uint64, obs int) uint64 {
	return fpFold(fpFold(fp, alphaBits), uint64(obs))
}

// HistoryFingerprint returns the rolling fingerprint of the release tags
// committed via CommitTagged. For a history-independent mechanism the tag
// sequence — (alphaBits, obs) per timestamp, alphaBits 0 for the uniform
// fallback — fully determines every committed emission column, so two
// quantifiers over the same model with equal fingerprints are (modulo a
// negligible 64-bit collision probability) in identical states. Commits
// made with plain Commit leave the fingerprint unchanged and make it
// meaningless; cache users must commit exclusively through CommitTagged.
func (q *Quantifier) HistoryFingerprint() uint64 { return q.fp }

// CommitTagged commits the released observation's emission column (as
// Commit) and folds its (alphaBits, obs) release tag into the rolling
// history fingerprint consumed by the certified-release cache.
func (q *Quantifier) CommitTagged(emis mat.Vector, alphaBits uint64, obs int) error {
	if err := q.Commit(emis); err != nil {
		return err
	}
	q.fp = FingerprintFold(q.fp, alphaBits, obs)
	return nil
}

// CommitTaggedTrusted is CommitTagged without the emission validation
// sweep (see CheckTrusted for the trust contract).
func (q *Quantifier) CommitTaggedTrusted(emis mat.Vector, alphaBits uint64, obs int) {
	q.commitTrusted(emis)
	q.fp = FingerprintFold(q.fp, alphaBits, obs)
}

// ShadowEta bounds the per-component relative error of the float32
// shadow check pipeline: every b̃/c̃ component computed by ShadowCheck
// is within a factor (1 ± ShadowEta) of the exact float64 value (up to
// the common normalisation scale). The bound holds because every matrix
// entry on the shadow path carries exactly one float64→float32
// conversion rounding (≤ 2⁻²⁴ relative) while accumulation runs in
// float64, and the engine's data is non-negative — sums never cancel,
// so per-term relative errors bound the relative error of the sum. The
// deepest chain (post-window: kernel matvec → B₁ row-product → operator
// row-product → add) compounds ≤ 4 such roundings plus O(m·2⁻⁵³) float64
// accumulation noise and the ~1e-38 subnormal flush of the conversion;
// 16·2⁻²⁴ covers all of it with 4× slack.
const ShadowEta = 16.0 / (1 << 24)

// ShadowCheck is the float32 shadow of Check: it computes the Theorem
// IV.1 vectors for a candidate emission column against float32 copies
// of the step kernels and operators, accumulating in float64. The
// returned b̃/c̃ differ from CheckTrusted's by an unknown positive
// common scale (the float32 copies are max-normalised) and a
// per-component relative error ≤ ShadowEta; both are exactly what
// qp.CheckReleaseShadow certifies against. The result aliases the same
// buffers as Check and is invalidated by the next Check/ShadowCheck.
//
// The second return is false when the shadow path cannot run — shadow
// copies not compiled, t == 0 (the exact branch is already O(m)), or a
// zero operator — and the caller must use the exact path.
func (q *Quantifier) ShadowCheck(emis mat.Vector) (qp.ReleaseCheck, bool) {
	sh := q.shadow
	if sh == nil || q.t == 0 || q.fwdMax == 0 {
		return qp.ReleaseCheck{}, false
	}
	m := q.md.m
	b, c := q.checkB, q.checkC
	if q.t <= q.md.end {
		if sh.fwdDirty {
			inv := 1 / q.fwdMax
			sh.af32.ConvertScaled(q.af, inv)
			sh.at32.ConvertScaled(q.at, inv)
			sh.fwdDirty = false
		}
		ft, tt := q.md.stepMasks(q.t - 1)
		k := q.md.kernel(q.t - 1)
		vF, vT := q.md.vF[q.t], q.md.vT[q.t]
		for i := 0; i < m; i++ {
			q.tmp1[i] = emis[i] * blend(ft, vF, vT, i)
		}
		if !k.mulVec32Into(q.uvec, q.tmp1) {
			return qp.ReleaseCheck{}, false
		}
		sh.af32.VecMulInto(b, q.uvec)
		for i := 0; i < m; i++ {
			q.tmp1[i] = emis[i] * blend(tt, vF, vT, i)
		}
		k.mulVec32Into(q.uvec, q.tmp1)
		sh.at32.VecMulInto(q.tmp2, q.uvec)
		b.AddInto(b, q.tmp2)
		k.mulVec32Into(q.uvec, emis)
		sh.af32.VecMulInto(c, q.uvec)
		sh.at32.VecMulInto(q.tmp2, q.uvec)
		c.AddInto(c, q.tmp2)
	} else {
		if q.b1Max == 0 {
			return qp.ReleaseCheck{}, false
		}
		if sh.fwdDirty {
			inv := 1 / q.fwdMax
			sh.af32.ConvertScaled(q.af, inv)
			sh.at32.ConvertScaled(q.at, inv)
			sh.fwdDirty = false
		}
		if sh.b1Dirty {
			sh.b132.ConvertScaled(q.b1, 1/q.b1Max)
			sh.b1Dirty = false
		}
		k := q.md.kernel(q.t - 1)
		if !k.mulVec32Into(q.uvec, emis) {
			return qp.ReleaseCheck{}, false
		}
		z := sh.b132.VecMulInto(q.tmp2, q.uvec)
		sh.at32.VecMulInto(b, z)
		sh.af32.VecMulInto(c, z)
		c.AddInto(c, b)
	}
	return qp.ReleaseCheck{ATilde: q.atilde, BTilde: b, CTilde: c}, true
}

// Lazy-renormalisation band: the rescale exists only to keep the
// operators away from floating-point under/overflow over long horizons,
// so it fires when the largest entry leaves [1e-100, 1e100] instead of
// on every commit — the O(m²) Scale pass drops off the hot path. The
// m-term matvec sums of Check have ~1e208 of headroom left above the
// band, and entries more than ~1e208 below the committed maximum flush
// to denormals exactly as they would have under per-commit rescaling.
const (
	rescaleLo = 1e-100
	rescaleHi = 1e100
)

// renormalise rescales the active operator so its largest entry — scale,
// computed by Commit as a byproduct of its final write pass — becomes 1,
// accumulating the factor in logScale; it is a no-op while scale sits
// inside the lazy band. A zero operator (an impossible observation
// sequence) is left as-is; Check/Current then return all-zero b̃/c̃,
// which CheckRelease treats as trivially safe. Both kernel paths commit
// bit-identical operators, so they rescale at the same timestamps by the
// same factors.
func (q *Quantifier) renormalise(scale float64) {
	if scale == 0 || (scale >= rescaleLo && scale <= rescaleHi) {
		return
	}
	if q.t-1 <= q.md.end {
		q.af.Scale(1 / scale)
		q.at.Scale(1 / scale)
		q.fwdMax = 1
	} else {
		q.b1.Scale(1 / scale)
		q.b1Max = 1
	}
	q.logScale += math.Log(scale)
}

func (q *Quantifier) validateEmission(emis mat.Vector) error {
	if len(emis) != q.md.m {
		return fmt.Errorf("world: emission column length %d want %d", len(emis), q.md.m)
	}
	for i, v := range emis {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("world: emission[%d] = %g invalid", i, v)
		}
	}
	return nil
}

// JointAndMarginal runs a fresh quantifier over a full observation
// sequence and returns Pr(EVENT, o₀..o_{T-1}) and Pr(o₀..o_{T-1}) for a
// fixed initial probability. Emission columns are supplied per timestamp.
// This is the direct evaluation of Lemmas III.2/III.3 used in tests and
// the Fig. 14 harness.
func JointAndMarginal(md *Model, pi mat.Vector, emissions []mat.Vector) (joint, marginal float64, err error) {
	if len(pi) != md.m {
		return 0, 0, fmt.Errorf("world: pi length %d want %d", len(pi), md.m)
	}
	q := NewQuantifier(md)
	for _, e := range emissions {
		if err := q.Commit(e); err != nil {
			return 0, 0, err
		}
	}
	chk := q.Current()
	scale := math.Exp(q.LogScale())
	return pi.Dot(chk.BTilde) * scale, pi.Dot(chk.CTilde) * scale, nil
}

// PrivacyLoss returns the realised ε of Definition II.4 for a fixed
// initial probability after observing the given sequence: the max of the
// two log-ratios between Pr(o|EVENT) and Pr(o|¬EVENT).
func PrivacyLoss(md *Model, pi mat.Vector, emissions []mat.Vector) (float64, error) {
	if len(pi) != md.m {
		return 0, fmt.Errorf("world: pi length %d want %d", len(pi), md.m)
	}
	q := NewQuantifier(md)
	for _, e := range emissions {
		if err := q.Commit(e); err != nil {
			return 0, err
		}
	}
	return qp.FixedPiLoss(q.Current(), pi)
}
