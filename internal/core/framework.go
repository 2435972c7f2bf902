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
}

// Framework is the per-session half of the PriSTE release loop: the
// session's RNG, its mechanism state, one streaming quantifier per
// protected event, and the next timestamp. Everything immutable — the
// validated configuration, compiled world models, uniform-fallback
// structures and (for history-independent mechanisms) the shared emission
// table and certified-release cache — lives in the Plan, so any number of
// sessions over identical parameters share one Plan via Plan.NewSession.
type Framework struct {
	plan   *Plan
	mech   lppm.Perturber
	quants []*world.Quantifier
	rng    Rand
	t      int

	// colBuf is the scratch emission column of the candidate loop: one
	// buffer per session instead of one allocation per candidate. Safe
	// because the framework is single-writer and no callee retains the
	// column (see lppm.Perturber.Observe).
	colBuf mat.Vector

	// tags is the committed release history: one (alphaBits, obs) pair
	// per released timestamp. Together with the plan it fully determines
	// the quantifier and mechanism state (see Snapshot / Plan.Restore).
	tags []ReleaseTag
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
		col := em.ColInto(f.colBuf, obs)
		ok, conservative, dur, err := f.checkAll(&res, t, math.Float64bits(alpha), obs, col, relOpts)
		res.CheckTime += dur
		if err != nil {
			return StepResult{}, err
		}
		if ok {
			if err := f.commit(t, obs, math.Float64bits(alpha), col); err != nil {
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
	if err := f.commit(t, obs, 0, f.plan.uniformCol); err != nil {
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
// hit skips both the quantifier forward pass and the QP solves. Verdicts
// containing Unknown are never stored — they encode an expired time
// budget, not a property of the release — so with no QP deadline a
// cache-backed run is decision-for-decision identical to an uncached one.
// A rejection whose other condition the solver Skipped is certified by
// the violated one and is stored like any other.
//
// With Config.Shadow, a cache miss first tries the float32 shadow check:
// the quantifier's shadow forward pass plus qp.CheckReleaseShadow, which
// accepts or rejects only when the solver margin exceeds the certified
// error bound. A decided shadow verdict is used directly but never
// cached (the cache stores exact verdicts only); an ambiguous one falls
// through to the exact float64 check below.
func (f *Framework) checkAll(res *StepResult, t int, alphaBits uint64, obs int, col mat.Vector, opts qp.ReleaseOptions) (ok, conservative bool, dur time.Duration, err error) {
	start := time.Now()
	defer func() { dur = time.Since(start) }()
	cache := f.plan.cache
	for i, q := range f.quants {
		var key certcache.Key
		if cache != nil {
			key = certcache.Key{
				Plan:      f.plan.id,
				Event:     i,
				T:         t,
				History:   q.HistoryFingerprint(),
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

// commit folds the released observation into every quantifier (tagged
// with its (alphaBits, obs) release pair for the history fingerprint) and
// the mechanism state.
func (f *Framework) commit(t, obs int, alphaBits uint64, col mat.Vector) error {
	for _, q := range f.quants {
		q.CommitTaggedTrusted(col, alphaBits, obs)
	}
	if err := f.mech.Observe(t, obs, col); err != nil {
		return fmt.Errorf("core: mechanism Observe: %w", err)
	}
	f.tags = append(f.tags, ReleaseTag{AlphaBits: alphaBits, Obs: obs})
	f.t++
	return nil
}

// Fingerprint returns the rolling history fingerprint of the committed
// release tags (world.FingerprintSeed before the first commit). Every
// quantifier of the session folds the same tags, so they agree; the
// first one is authoritative.
func (f *Framework) Fingerprint() uint64 {
	return f.quants[0].HistoryFingerprint()
}

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
		Fingerprint: f.Fingerprint(),
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
	if i < 0 || i >= len(f.quants) {
		return 0, fmt.Errorf("core: event index %d outside [0,%d)", i, len(f.quants))
	}
	return qp.FixedPiLoss(f.quants[i].Current(), pi)
}
