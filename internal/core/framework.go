// Package core implements the PriSTE framework of §IV: the release loop
// (Algorithm 1) that drives an LPPM, quantifies the ε-spatiotemporal event
// privacy of each candidate perturbed location with the two-possible-world
// quantifier, and calibrates the LPPM's budget by exponential decay until
// the Theorem IV.1 conditions are certified (Algorithm 2 for
// geo-indistinguishability, Algorithm 3 for δ-location-set privacy — the
// two case studies differ only in the Perturber supplied).
package core

import (
	"encoding"
	"fmt"
	"math"
	"time"

	"priste/internal/certcache"
	"priste/internal/event"
	"priste/internal/lppm"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/world"
)

// Config tunes the release loop.
type Config struct {
	// Epsilon is the ε of ε-spatiotemporal event privacy (Definition II.4).
	Epsilon float64
	// Alpha is the LPPM's initial privacy budget at every timestamp.
	Alpha float64
	// Decay is the multiplicative budget decay applied on each rejected
	// candidate (line 19 of Algorithm 2 uses 1/2). Must lie in (0,1).
	// Smaller values converge faster at the cost of over-perturbation.
	Decay float64
	// MaxAttempts bounds the number of candidate draws per timestamp
	// before the loop falls back to the uniform (zero-information)
	// release, which satisfies the conditions for any ε. Default 40.
	MaxAttempts int
	// MinAlpha is the budget floor triggering the uniform fallback.
	// Default Alpha·2⁻³⁰.
	MinAlpha float64
	// QPTimeout is the conservative-release threshold of §IV-C: the
	// per-candidate time budget for the quadratic-program checks. An
	// expired check counts as "not sure" and the candidate is rejected.
	// Zero means no limit.
	QPTimeout time.Duration
	// QPTol is the positivity tolerance of the condition solver; zero
	// uses the solver default.
	QPTol float64
	// Kernel selects the transition-kernel compilation mode for the
	// plan's world models: world.KernelAuto (the default) compiles a
	// transition matrix to CSR when it is sparse enough and keeps it
	// dense otherwise; KernelDense and KernelSparse force one path. The
	// paths are bit-for-bit equivalent, so this is purely a performance
	// knob (and a regression-test hook).
	Kernel world.KernelMode
	// Shadow enables the float32 shadow check path: candidate checks run
	// against float32 copies of the quantifier operators (float64
	// accumulation) and the qp conditions are decided directly whenever
	// the solver's margin exceeds the certified shadow error bound
	// (world.ShadowEta); ambiguous margins fall back to the exact float64
	// check. Commits always run exact float64 and shadow verdicts are
	// never stored in the certified-release cache, so the released
	// observation sequence is identical to the unshadowed one.
	Shadow bool
	// Parallelism, when positive, fixes the width of the process-global
	// kernel worker pool (par.Default().SetParallelism) the plan's
	// quantifiers fan their tile-parallel products out on; 0 leaves the
	// pool tracking GOMAXPROCS. The pool is shared by every plan in the
	// process, so the last nonzero value compiled wins. Parallel and
	// serial kernels are bit-identical (fixed tile boundaries, one
	// accumulation chain per output entry), so this is a performance
	// knob only — releases, fingerprints and replay are unaffected.
	Parallelism int
}

func (c Config) validate() error {
	if c.Epsilon <= 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("core: epsilon must be positive and finite, got %g", c.Epsilon)
	}
	if c.Alpha <= 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) {
		return fmt.Errorf("core: alpha must be positive and finite, got %g", c.Alpha)
	}
	if c.Decay <= 0 || c.Decay >= 1 || math.IsNaN(c.Decay) {
		return fmt.Errorf("core: decay must lie in (0,1), got %g", c.Decay)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 40
	}
	if c.MinAlpha <= 0 {
		c.MinAlpha = c.Alpha * math.Pow(2, -30)
	}
	return c
}

// DefaultConfig returns the paper's experiment defaults for a given ε and
// initial budget: halving decay and a 1-second conservative-release
// threshold (§V-A).
func DefaultConfig(epsilon, alpha float64) Config {
	return Config{
		Epsilon:   epsilon,
		Alpha:     alpha,
		Decay:     0.5,
		QPTimeout: time.Second,
	}
}

// StepResult records one released timestamp.
type StepResult struct {
	T   int
	Obs int
	// Alpha is the final budget used for the release; 0 when the uniform
	// fallback fired (no information released).
	Alpha float64
	// Attempts is the number of candidate draws, including the released
	// one (1 = first candidate accepted).
	Attempts int
	// ConservativeRejections counts candidates rejected only because the
	// QP solver ran out of budget (Unknown verdicts), the quantity
	// Table III reports as "# of Conservative Release".
	ConservativeRejections int
	// Uniform marks the zero-information fallback.
	Uniform bool
	// CheckTime is the total wall time spent in the QP checks.
	CheckTime time.Duration
	// CertCacheHits and CertCacheMisses count per-event certified-release
	// cache lookups across every candidate of this step (both zero when
	// the plan carries no cache). A step with no misses committed without
	// a single quantifier forward pass or QP solve — the serving layer
	// uses that split to report cache-hit and cache-miss commit latency
	// separately.
	CertCacheHits   int
	CertCacheMisses int
	// Rebuilt is the number of committed release tags folded into the
	// quantifier operators during this step and RebuildTime the wall time
	// that took (not part of CheckTime). A history-independent session
	// defers every commit's operator products to the next check that
	// misses the cache, so a miss after a run of hits — or the first one
	// after a Restore — pays for the whole run here; a stateful session
	// reports its own commit, 1.
	Rebuilt     int
	RebuildTime time.Duration
}

// Framework is the per-session half of the PriSTE release loop: the
// session's RNG, its mechanism state, the committed release-tag log and
// the next timestamp. Everything immutable — the validated configuration,
// compiled world models, uniform-fallback structures and (for
// history-independent mechanisms) the shared emission table and
// certified-release cache — lives in the Plan, so any number of sessions
// over identical parameters share one Plan via Plan.NewSession.
//
// The tag log is the state; the per-event streaming quantifiers are a view
// of it, built by materialise when a check misses the cache (or
// RealizedLoss asks) and not before: a session whose checks all hit, and a
// restored or imported one until its first miss, holds no operators.
type Framework struct {
	plan *Plan
	mech lppm.Perturber
	rng  Rand
	t    int

	// tags is the committed release history, one (alphaBits, obs) pair
	// per released timestamp, and fp the rolling fingerprint over it
	// (world.FingerprintFold from world.FingerprintSeed). Together with
	// the plan they determine the quantifier and mechanism state (see
	// Snapshot / Plan.Restore).
	tags []ReleaseTag
	fp   uint64

	// quants holds one quantifier per protected event with tags[:applied]
	// committed; nil until materialise first runs. colBuf is the candidate
	// column of the miss path and replayBuf the column materialise
	// re-derives per pending tag — two buffers, because tags are replayed
	// while a live candidate sits in colBuf. Both are allocated with the
	// quantifiers; no callee retains a column (see lppm.Perturber.Observe).
	quants            []*world.Quantifier
	applied           int
	colBuf, replayBuf mat.Vector
}

// ReleaseTag is one committed release: math.Float64bits of the budget the
// release was certified at (0 for the uniform fallback, which no genuine
// budget produces) and the released observation. The tag sequence of a
// session determines every committed emission column, so replaying it
// through the session's Plan deterministically rebuilds all mutable
// engine state — the property the durable-session WAL relies on.
type ReleaseTag struct {
	AlphaBits uint64
	Obs       int
}

// Snapshot is a complete, serialisable image of a session's mutable
// state: the committed release-tag history, the rolling history
// fingerprint over it, and (when the session RNG supports
// encoding.BinaryMarshaler, as SessionRNG does) the marshaled RNG state.
// Plan.Restore turns it back into a live Framework.
type Snapshot struct {
	// T is the next timestamp to be released; equals len(Tags).
	T int
	// Tags is the committed release history in timestamp order.
	Tags []ReleaseTag
	// Fingerprint is the rolling history fingerprint the quantifiers
	// report after committing Tags (world.FingerprintSeed when empty).
	Fingerprint uint64
	// RNG is the marshaled session RNG state, or nil when the RNG is not
	// marshalable (such a snapshot restores state but not the draw
	// sequence).
	RNG []byte
}

// New builds a single-session framework protecting the given events under
// the supplied mobility model: a Plan compiled for this one call plus one
// session over it. The transition provider is shared across events.
// Callers serving many sessions with identical parameters should build
// one Plan with NewPlan and mint sessions with Plan.NewSession instead.
func New(mech lppm.Perturber, tp world.TransitionProvider, events []event.Event, cfg Config, rng Rand) (*Framework, error) {
	if mech == nil {
		return nil, fmt.Errorf("core: nil mechanism")
	}
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	p, err := NewPlan(SharedMechanism(mech), tp, events, cfg)
	if err != nil {
		return nil, err
	}
	return p.NewSession(rng)
}

// T returns the next timestamp to be released.
func (f *Framework) T() int { return f.t }

// Plan returns the shared immutable plan backing this session.
func (f *Framework) Plan() *Plan { return f.plan }

// Events returns the protected events.
func (f *Framework) Events() []event.Event { return f.plan.events }

// Step perturbs and releases one true location (the body of Algorithm 1):
// draw a candidate from the LPPM, certify the Theorem IV.1 conditions for
// every protected event, decay the budget and redraw on failure, and fall
// back to a uniform release when the budget underflows. The uniform
// release is provably safe: with a state-independent emission column the
// condition values scale by a positive constant, so certified conditions
// remain certified.
func (f *Framework) Step(trueLoc int) (StepResult, error) {
	cfg := f.plan.cfg
	if trueLoc < 0 || trueLoc >= f.plan.m {
		return StepResult{}, fmt.Errorf("core: true location %d outside [0,%d)", trueLoc, f.plan.m)
	}
	t := f.t
	if err := f.mech.Begin(t); err != nil {
		return StepResult{}, fmt.Errorf("core: mechanism Begin(%d): %w", t, err)
	}
	res := StepResult{T: t}
	alpha := cfg.Alpha
	relOpts := qp.ReleaseOptions{
		Solver:   qp.Options{Tol: cfg.QPTol},
		Deadline: cfg.QPTimeout,
	}
	for attempt := 1; attempt <= cfg.MaxAttempts && alpha >= cfg.MinAlpha; attempt++ {
		res.Attempts = attempt
		em, err := f.mech.Emission(alpha)
		if err != nil {
			return StepResult{}, fmt.Errorf("core: emission at alpha=%g: %w", alpha, err)
		}
		obs, err := lppm.SampleRow(f.rng, em, trueLoc)
		if err != nil {
			return StepResult{}, fmt.Errorf("core: sampling: %w", err)
		}
		ok, conservative, dur, err := f.checkAll(&res, t, math.Float64bits(alpha), obs, em, relOpts)
		res.CheckTime += dur
		if err != nil {
			return StepResult{}, err
		}
		if ok {
			if err := f.commit(&res, obs, math.Float64bits(alpha)); err != nil {
				return StepResult{}, err
			}
			res.Obs = obs
			res.Alpha = alpha
			return res, nil
		}
		if conservative {
			res.ConservativeRejections++
		}
		alpha *= cfg.Decay
	}
	// Uniform fallback: α → 0 releases no information about the true
	// location (§IV-C). Its release tag is alphaBits 0, which no genuine
	// budget produces (budgets are strictly positive).
	obs, err := lppm.SampleRow(f.rng, f.plan.uniformEm, trueLoc)
	if err != nil {
		return StepResult{}, err
	}
	if err := f.commit(&res, obs, 0); err != nil {
		return StepResult{}, err
	}
	res.Obs = obs
	res.Alpha = 0
	res.Uniform = true
	res.Attempts++
	return res, nil
}

// checkAll certifies the conditions for every protected event. When the
// plan carries a certified-release cache (history-independent mechanisms
// only), each per-event check is first looked up by (plan, event,
// timestamp, committed history fingerprint, candidate alphaBits, obs); a
// hit touches no quantifier at all — no forward pass, no QP solve, no
// emission column, none of the operator products of the commits since the
// last miss. Verdicts containing Unknown are never stored — they encode an
// expired time budget, not a property of the release — so with no QP
// deadline a cache-backed run is decision-for-decision identical to an
// uncached one. A rejection whose other condition the solver Skipped is
// certified by the violated one and is stored like any other.
//
// The first miss of a candidate brings the operators up to the tag log
// (materialise; charged to res.RebuildTime, not to dur) and derives the
// candidate's emission column; later events of the same candidate reuse
// both.
//
// With Config.Shadow, a cache miss first tries the float32 shadow check:
// the quantifier's shadow forward pass plus qp.CheckReleaseShadow, which
// accepts or rejects only when the solver margin exceeds the certified
// error bound. A decided shadow verdict is used directly but never
// cached (the cache stores exact verdicts only); an ambiguous one falls
// through to the exact float64 check below.
func (f *Framework) checkAll(res *StepResult, t int, alphaBits uint64, obs int, em *mat.Matrix, opts qp.ReleaseOptions) (ok, conservative bool, dur time.Duration, err error) {
	start := time.Now()
	defer func() { dur = time.Since(start) }()
	cache := f.plan.cache
	var col mat.Vector
	for i := range f.plan.models {
		var key certcache.Key
		if cache != nil {
			key = certcache.Key{
				Plan:      f.plan.id,
				Event:     i,
				T:         t,
				History:   f.fp,
				AlphaBits: alphaBits,
				Obs:       obs,
			}
			if dec, hit := cache.Get(key); hit {
				res.CertCacheHits++
				if !dec.OK {
					return false, dec.Conservative, 0, nil
				}
				continue
			}
			res.CertCacheMisses++
		}
		if col == nil {
			before := res.RebuildTime
			if err := f.materialise(res); err != nil {
				return false, false, 0, err
			}
			start = start.Add(res.RebuildTime - before) // dur excludes the rebuild
			col = em.ColInto(f.colBuf, obs)
		}
		q := f.quants[i]
		if f.plan.cfg.Shadow {
			if shadowChk, okS := q.ShadowCheck(col); okS {
				f.plan.shadowChecks.Add(1)
				shadowChk.Epsilon = f.plan.cfg.Epsilon
				dec, decided, err := qp.CheckReleaseShadow(shadowChk, world.ShadowEta, opts)
				if err != nil {
					return false, false, 0, fmt.Errorf("core: shadow release check %d: %w", i, err)
				}
				if decided {
					if !dec.OK {
						return false, dec.Conservative, 0, nil
					}
					continue
				}
				f.plan.shadowFallbacks.Add(1)
			}
		}
		// Emission columns come from validated sources (the mechanisms
		// validate at matrix build; the uniform column is constructed by
		// the plan), so the trusted sweep-free entry point applies.
		chk := q.CheckTrusted(col)
		chk.Epsilon = f.plan.cfg.Epsilon
		dec, err := qp.CheckRelease(chk, opts)
		if err != nil {
			return false, false, 0, fmt.Errorf("core: release check %d: %w", i, err)
		}
		if cache != nil && dec.Eq15.Verdict != qp.Unknown && dec.Eq16.Verdict != qp.Unknown {
			cache.Put(key, dec)
		}
		if !dec.OK {
			return false, dec.Conservative, 0, nil
		}
	}
	return true, false, 0, nil
}

// commit appends the release to the tag log, folds it into the rolling
// fingerprint and advances time — for a history-independent mechanism that
// is the whole commit: the operator products wait in the log until a check
// reads the operators (materialise), and a commit no later check reads
// never runs them. A stateful mechanism's Observe needs the committed
// column before its next Begin and its checks are never cached, so its
// session materialises at once.
func (f *Framework) commit(res *StepResult, obs int, alphaBits uint64) error {
	f.tags = append(f.tags, ReleaseTag{AlphaBits: alphaBits, Obs: obs})
	f.fp = world.FingerprintFold(f.fp, alphaBits, obs)
	f.t++
	if f.plan.stateless {
		return nil
	}
	return f.materialise(res)
}

// materialise brings the quantifier view up to the tag log: it allocates
// the quantifiers on first use and replays tags[applied:] through the eager
// world.Quantifier commit and the mechanism's Observe, re-deriving each
// committed column from its tag — the budget's column for the released
// observation, or the uniform column for a fallback tag. It is the only
// place operators are written (Step's miss path, a stateful commit,
// RealizedLoss and, through commit, Plan.Restore all come here), so every
// commit runs at most once, in log order, on the column its tag determines,
// and the operators are bit-identical to those of a session that
// materialises after every commit. The operators' fingerprint is checked
// against the log's whenever they are advanced. On error applied marks the
// first tag not committed and the next call resumes there. res, when
// non-nil, is charged the tags replayed and the time taken.
func (f *Framework) materialise(res *StepResult) error {
	if f.quants != nil && f.applied == len(f.tags) {
		return nil
	}
	start := time.Now()
	if f.quants == nil {
		for _, md := range f.plan.models {
			f.quants = append(f.quants, world.NewQuantifier(md))
		}
		f.colBuf, f.replayBuf = mat.NewVector(f.plan.m), mat.NewVector(f.plan.m)
	}
	from := f.applied
	for ; f.applied < len(f.tags); f.applied++ {
		t, tag := f.applied, f.tags[f.applied]
		col := f.plan.uniformCol
		if tag.AlphaBits != 0 {
			alpha := math.Float64frombits(tag.AlphaBits)
			em, err := f.mech.Emission(alpha)
			if err != nil {
				return fmt.Errorf("core: replay t=%d: emission at alpha=%g: %w", t, alpha, err)
			}
			col = em.ColInto(f.replayBuf, tag.Obs)
		}
		// Observe first: it can fail, the operator commits cannot, so a
		// failed tag is committed nowhere.
		if err := f.mech.Observe(t, tag.Obs, col); err != nil {
			return fmt.Errorf("core: replay t=%d: mechanism Observe: %w", t, err)
		}
		for _, q := range f.quants {
			q.CommitTaggedTrusted(col, tag.AlphaBits, tag.Obs)
		}
	}
	if res != nil {
		res.Rebuilt += f.applied - from
		res.RebuildTime += time.Since(start)
	}
	if got := f.quants[0].HistoryFingerprint(); got != f.fp {
		return fmt.Errorf("%w: operators at %#x, tag log at %#x", ErrFingerprintMismatch, got, f.fp)
	}
	return nil
}

// Fingerprint returns the rolling history fingerprint of the committed
// release tags (world.FingerprintSeed before the first commit). The
// quantifiers fold the same tags as they are materialised and are held to
// this value.
func (f *Framework) Fingerprint() uint64 { return f.fp }

// Tags returns the committed release-tag history. Callers must not
// mutate the slice.
func (f *Framework) Tags() []ReleaseTag { return f.tags }

// RNGState returns the marshaled session RNG state, or nil when the RNG
// is not marshalable. Cheap (tens of bytes): the per-step WAL record
// carries it so a crash-recovered session resumes the exact draw
// sequence.
func (f *Framework) RNGState() ([]byte, error) {
	m, ok := f.rng.(encoding.BinaryMarshaler)
	if !ok {
		return nil, nil
	}
	b, err := m.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshal session rng: %w", err)
	}
	return b, nil
}

// Snapshot captures the session's complete mutable state. The framework
// is single-writer; Snapshot must be called from the same context that
// calls Step (or while the session is provably idle).
func (f *Framework) Snapshot() (Snapshot, error) {
	rng, err := f.RNGState()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{
		T:           f.t,
		Tags:        append([]ReleaseTag(nil), f.tags...),
		Fingerprint: f.fp,
		RNG:         rng,
	}, nil
}

// Run releases a whole trajectory and returns the per-timestamp results.
func (f *Framework) Run(traj []int) ([]StepResult, error) {
	out := make([]StepResult, 0, len(traj))
	for _, u := range traj {
		r, err := f.Step(u)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RealizedLoss returns, for a fixed initial probability, the realised
// privacy loss of the observation sequence committed so far with respect
// to protected event i (diagnostics; the release-time guarantee already
// holds for every initial probability).
func (f *Framework) RealizedLoss(i int, pi mat.Vector) (float64, error) {
	if i < 0 || i >= len(f.plan.models) {
		return 0, fmt.Errorf("core: event index %d outside [0,%d)", i, len(f.plan.models))
	}
	if err := f.materialise(nil); err != nil {
		return 0, err
	}
	return qp.FixedPiLoss(f.quants[i].Current(), pi)
}
