package world

import (
	"fmt"
	"math"

	"priste/internal/mat"
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
	// (see CommitTaggedTrusted); it identifies the committed-column
	// history for the certified-release cache.
	fp uint64

	atilde mat.Vector

	// fwdBand and b1Band track the live bandwidth of the forward
	// operators and the backward accumulator: each committed step widens
	// the band by the step matrix's bandwidth (clamped at m−1 = full).
	// Check rows over the operators run band-limited while the band
	// skips columns, and CSR commits read each operator within it.
	// afZero/atZero/b1Zero record, from the largest absolute entry each
	// commit's final write pass produces for free, that a block was
	// written all-zero (A_T until the window opens, B₁ after an
	// impossible observation): commit and check products over it are
	// zeros and are skipped.
	fwdBand, b1Band        int
	afZero, atZero, b1Zero bool

	// scratch. Check and Current are zero-allocation: each writes its
	// b̃/c̃ into its own pair of reusable buffers (checkB/checkC and
	// curB/curC), which the returned ReleaseCheck aliases — see the
	// ownership contract on Check. tmp1/tmp2/uvec/uF hold row-product
	// intermediates. The Commit matrix products are not the view's: a
	// commit borrows them from the model (commitScratch).
	tmp1, tmp2, uvec, uF mat.Vector
	checkB, checkC       mat.Vector
	curB, curC           mat.Vector
}

// NewQuantifier returns a quantifier at time 0: one a Release handed back
// to md's pool if there is one, else a fresh one. Either way it starts
// from the same state, so what it computes is the same to the bit.
func NewQuantifier(md *Model) *Quantifier {
	if q, ok := md.views.Get().(*Quantifier); ok {
		q.reset()
		return q
	}
	m := md.m
	return &Quantifier{
		md:     md,
		fp:     fpOffset,
		af:     mat.NewMatrix(m, m),
		at:     mat.NewMatrix(m, m),
		b1:     mat.Identity(m),
		atilde: md.ATilde(),
		tmp1:   mat.NewVector(m),
		tmp2:   mat.NewVector(m),
		uvec:   mat.NewVector(m),
		uF:     mat.NewVector(m),
		checkB: mat.NewVector(m),
		checkC: mat.NewVector(m),
		curB:   mat.NewVector(m),
		curC:   mat.NewVector(m),
	}
}

// reset puts a released quantifier back in the state NewQuantifier builds
// a fresh one in. A_F and A_T need no reset: the t = 0 commit overwrites
// both before anything reads them. B₁ is first read after the window, as
// the identity it starts as.
func (q *Quantifier) reset() {
	q.t, q.logScale, q.fp = 0, 0, fpOffset
	q.fwdBand, q.b1Band = 0, 0
	q.afZero, q.atZero, q.b1Zero = false, false, false
	q.b1.Zero()
	for i := 0; i < q.md.m; i++ {
		q.b1.Set(i, i, 1)
	}
}

// Release hands the quantifier's storage back to its model for the next
// NewQuantifier over it. Only the quantifier's single writer may call it,
// once, and nothing may use the quantifier — or a ReleaseCheck it
// returned — afterwards: a second Release would give the storage to two
// owners.
func (q *Quantifier) Release() { q.md.views.Put(q) }

// T returns the next timestamp to be observed.
func (q *Quantifier) T() int { return q.t }

// LogScale returns the accumulated log of the normalisation factors; the
// true joint probabilities are the reported b̃/c̃ times exp(LogScale).
func (q *Quantifier) LogScale() float64 { return q.logScale }

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
		z := q.rowMul(q.tmp2, q.uvec, q.b1, q.b1Band, q.b1Zero) // (M·emis)ᵀ·B₁
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
		z := q.rowMul(q.tmp2, q.md.ones, q.b1, q.b1Band, q.b1Zero)
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
	case q.t <= q.md.end:
		ft, tt := q.md.stepMasks(q.t - 1)
		k := q.md.kernel(q.t - 1)
		sc := q.md.getScratch()
		// Scratch for a factored product is storage dead at that
		// moment: y before Y is written, then A_F, which X has
		// consumed and maskAndScale overwrites.
		k.mulInto(sc.x, q.af, sc.y, q.fwdBand, q.afZero, &q.md.kc) // Xᵀ = Mᵀ·A_Fᵀ
		k.mulInto(sc.y, q.at, q.af, q.fwdBand, q.atZero, &q.md.kc) // Yᵀ = Mᵀ·A_Tᵀ
		scale, q.afZero, q.atZero = q.maskAndScale(ft, tt, emis, sc)
		q.md.putScratch(sc)
		q.fwdBand = min(q.fwdBand+k.bw, m-1)
	default: // q.t > end: B₁ ← diag(emis)·Mᵀ·B₁
		k := q.md.kernel(q.t - 1)
		sc := q.md.getScratch()
		k.mulInto(sc.x, q.b1, sc.y, q.b1Band, q.b1Zero, &q.md.kc)
		scale = mat.ScaleRowsMaxInto(q.b1, sc.x, emis)
		q.md.putScratch(sc)
		q.b1Band = min(q.b1Band+k.bw, m-1)
		q.b1Zero = scale == 0
	}
	q.t++
	q.renormalise(scale)
}

// maskAndScale folds the step masks and the emission column into the
// forward blocks: A_F' = X·diag(1−ft) + Y·diag(1−tt), A_T' = X·diag(ft)
// + Y·diag(tt), with Xᵀ and Yᵀ in sc, both column-scaled by the
// emission — row scalings of the transposed blocks, one mat.MaskRow
// each: row j carries column j's mask and emission. It returns the
// largest absolute entry written and whether each block came out
// all-zero (fused so renormalisation and the zero-block skips need no
// second sweep of the operators). The pass is serial: at m = 256 and
// 400 a row split across two CPUs was no faster than one CPU running the
// vectorised rows.
func (q *Quantifier) maskAndScale(ft, tt, emis mat.Vector, sc *commitScratch) (scale float64, afZero, atZero bool) {
	var fMax, tMax float64
	for j := 0; j < q.md.m; j++ {
		f, t := mat.MaskRow(q.af.Row(j), q.at.Row(j), sc.x.Row(j), sc.y.Row(j), ft[j], tt[j], emis[j])
		fMax, tMax = max(fMax, f), max(tMax, t)
	}
	return max(fMax, tMax), fMax == 0, tMax == 0
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
// history fingerprint, exactly as CommitTaggedTrusted does. It lets
// persistence layers verify a tag log's fingerprint chain without
// instantiating a quantifier: folding a session's tags in order from
// FingerprintSeed must reproduce the fingerprint its quantifiers report.
func FingerprintFold(fp, alphaBits uint64, obs int) uint64 {
	return fpFold(fpFold(fp, alphaBits), uint64(obs))
}

// HistoryFingerprint returns the rolling fingerprint of the release tags
// committed via CommitTaggedTrusted. For a history-independent mechanism
// the tag sequence — (alphaBits, obs) per timestamp, alphaBits 0 for the
// uniform fallback — fully determines every committed emission column,
// so two quantifiers over the same model with equal fingerprints are
// (modulo a negligible 64-bit collision probability) in identical
// states. Commits made with plain Commit leave the fingerprint unchanged
// and make it meaningless; cache users must commit exclusively through
// CommitTaggedTrusted.
func (q *Quantifier) HistoryFingerprint() uint64 { return q.fp }

// commitTagged is CommitTaggedTrusted behind Commit's emission
// validation.
func (q *Quantifier) commitTagged(emis mat.Vector, alphaBits uint64, obs int) error {
	if err := q.Commit(emis); err != nil {
		return err
	}
	q.fp = FingerprintFold(q.fp, alphaBits, obs)
	return nil
}

// CommitTaggedTrusted commits the released observation's emission column
// (as Commit, without the emission validation sweep; see CheckTrusted for
// the trust contract) and folds its (alphaBits, obs) release tag into the
// rolling history fingerprint consumed by the certified-release cache.
func (q *Quantifier) CommitTaggedTrusted(emis mat.Vector, alphaBits uint64, obs int) {
	q.commitTrusted(emis)
	q.fp = FingerprintFold(q.fp, alphaBits, obs)
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
	} else {
		q.b1.Scale(1 / scale)
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
	defer q.Release()
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
	defer q.Release()
	for _, e := range emissions {
		if err := q.Commit(e); err != nil {
			return 0, err
		}
	}
	return qp.FixedPiLoss(q.Current(), pi)
}
