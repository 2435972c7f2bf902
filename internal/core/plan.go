package core

import (
	"encoding"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"priste/internal/certcache"
	"priste/internal/event"
	"priste/internal/lppm"
	"priste/internal/mat"
	"priste/internal/world"
)

// MechanismFactory builds one per-session Perturber. A factory backing a
// history-independent mechanism (lppm.HistoryIndependent) may — and
// SharedMechanism does — return the same instance on every call; a
// factory for a stateful mechanism (δ-location-set) must return a fresh
// instance each time, because each session owns its mechanism state.
type MechanismFactory func() (lppm.Perturber, error)

// SharedMechanism adapts a single Perturber instance into a factory that
// hands the same instance to every session. Safe for history-independent
// mechanisms; a stateful mechanism passed here supports only one session
// (Plan.NewSession rejects the second).
func SharedMechanism(mech lppm.Perturber) MechanismFactory {
	return func() (lppm.Perturber, error) { return mech, nil }
}

// planIDs allocates process-unique plan ids for certified-release cache
// keying.
var planIDs atomic.Uint64

// Plan is the immutable, shareable half of the PriSTE engine: the
// validated release-loop configuration, the compiled two-possible-world
// model of every protected event (the O(horizon·m²) suffix-vector
// precomputation), the uniform-fallback structures, and — for
// history-independent mechanisms — one shared mechanism instance whose
// per-alpha emission table is filled once for all sessions. Everything
// mutable (RNG, quantifier operators, mechanism posterior, timestamp)
// lives in the per-session Framework returned by NewSession, so thousands
// of sessions with identical parameters compile the world once and, with
// EnableCache, certify each release condition once.
type Plan struct {
	cfg    Config
	events []event.Event
	models []*world.Model
	m      int

	uniformCol mat.Vector
	uniformEm  *mat.Matrix

	mf        MechanismFactory
	shared    lppm.Perturber // non-nil iff the mechanism is history-independent
	stateless bool

	id    uint64
	cache *certcache.Cache

	// mu guards lastMech, the duplicate-instance check for stateful
	// factories (see NewSession).
	mu       sync.Mutex
	lastMech lppm.Perturber
}

// NewPlan validates the configuration, compiles the world model of every
// event, and returns a plan ready to mint sessions. The factory is
// invoked once up front to validate the mechanism shape and detect
// history independence.
func NewPlan(mf MechanismFactory, tp world.TransitionProvider, events []event.Event, cfg Config) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if mf == nil {
		return nil, fmt.Errorf("core: nil mechanism factory")
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("core: at least one event is required")
	}
	proto, err := mf()
	if err != nil {
		return nil, fmt.Errorf("core: mechanism factory: %w", err)
	}
	if proto == nil {
		return nil, fmt.Errorf("core: mechanism factory returned nil")
	}
	if proto.States() != tp.States() {
		return nil, fmt.Errorf("core: mechanism has %d states, chain has %d", proto.States(), tp.States())
	}
	p := &Plan{
		cfg:    cfg.withDefaults(),
		events: append([]event.Event(nil), events...),
		m:      proto.States(),
		mf:     mf,
		id:     planIDs.Add(1),
	}
	if _, ok := proto.(lppm.HistoryIndependent); ok {
		p.stateless = true
		p.shared = proto
	}
	for _, ev := range events {
		md, err := world.NewModelWithOptions(tp, ev, world.ModelOptions{Kernel: p.cfg.Kernel})
		if err != nil {
			return nil, fmt.Errorf("core: event %v: %w", ev, err)
		}
		p.models = append(p.models, md)
	}
	p.uniformCol = mat.NewVector(p.m)
	p.uniformEm = mat.NewMatrix(p.m, p.m)
	for i := 0; i < p.m; i++ {
		p.uniformCol[i] = 1 / float64(p.m)
		row := p.uniformEm.Row(i)
		for j := range row {
			row[j] = 1 / float64(p.m)
		}
	}
	return p, nil
}

// ID returns the plan's process-unique id (certified-release cache keys
// embed it).
func (p *Plan) ID() uint64 { return p.id }

// Config returns the effective (defaulted) release-loop configuration.
func (p *Plan) Config() Config { return p.cfg }

// Events returns the protected events. Callers must not mutate the slice.
func (p *Plan) Events() []event.Event { return p.events }

// States returns the size of the location domain.
func (p *Plan) States() int { return p.m }

// Stateless reports whether the plan's mechanism is history-independent
// (one shared instance, certified verdicts cacheable across sessions).
func (p *Plan) Stateless() bool { return p.stateless }

// KernelStats aggregates the compiled step kernels across the plan's
// world models: how many transition matrices took the sparse (CSR) path
// versus the dense one, and at what density.
func (p *Plan) KernelStats() world.KernelStats {
	var s world.KernelStats
	for _, md := range p.models {
		s = s.Add(md.KernelStats())
	}
	return s
}

// EnableCache attaches a certified-release cache. It is a no-op for
// stateful mechanisms, whose verdicts depend on per-session state and
// must be recomputed. Attach before the plan's sessions start stepping;
// several plans may share one cache (keys embed the plan id).
func (p *Plan) EnableCache(c *certcache.Cache) {
	if p.stateless {
		p.cache = c
	}
}

// NewSession mints a lightweight per-session Framework over the plan: an
// empty release-tag log, the session's RNG, and — for stateful mechanisms —
// a fresh mechanism instance from the factory. No quantifier is allocated
// until a check first reads one (Framework.materialise).
func (p *Plan) NewSession(rng Rand) (*Framework, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	mech := p.shared
	if mech == nil {
		var err error
		mech, err = p.mf()
		if err != nil {
			return nil, fmt.Errorf("core: mechanism factory: %w", err)
		}
		if mech == nil {
			return nil, fmt.Errorf("core: mechanism factory returned nil")
		}
		if mech.States() != p.m {
			return nil, fmt.Errorf("core: mechanism has %d states, plan has %d", mech.States(), p.m)
		}
		// A stateful factory handing out the same instance twice would
		// silently share mechanism state between sessions.
		p.mu.Lock()
		dup := p.lastMech == mech
		p.lastMech = mech
		p.mu.Unlock()
		if dup {
			return nil, fmt.Errorf("core: stateful mechanism instance reused across sessions (factory must return fresh instances)")
		}
	}
	return &Framework{plan: p, mech: mech, rng: rng, fp: world.FingerprintSeed}, nil
}

// ErrFingerprintMismatch reports that replaying a tag log did not
// reproduce the history fingerprint recorded for it — a snapshot's at
// Restore, the session's own when its operators are rebuilt: the log and
// the fingerprint disagree about the committed history, so the session
// cannot be trusted.
var ErrFingerprintMismatch = errors.New("core: restored history fingerprint mismatch")

// Restore rebuilds a session from a Snapshot by re-committing its release
// tags in order through the same commit Step uses: each tag is validated
// (observation in range, budget a genuine positive finite value or the
// uniform fallback's 0), the mechanism is advanced (Begin) and the tag is
// appended to the log and folded into the fingerprint, which is verified
// against the snapshot at the end (ErrFingerprintMismatch otherwise). For a
// history-independent mechanism that is all — O(T) integer work; the
// quantifier operators are rebuilt from the log by the first check that
// misses the cache, through the one replay path the live session uses
// (Framework.materialise), and are held to the log's fingerprint there. A
// stateful mechanism's commit materialises at once, so its posterior and
// operators are rebuilt here, column by column, as before. Either way
// replay is deterministic: operators, mechanism state and timestamp are
// bit-identical to the uninterrupted run's whenever they are read.
//
// When the snapshot carries RNG state, rng must implement
// encoding.BinaryUnmarshaler (SessionRNG does) and is restored to it, so
// subsequent Steps draw the exact candidate sequence the original
// session would have.
func (p *Plan) Restore(snap Snapshot, rng Rand) (*Framework, error) {
	if snap.T != len(snap.Tags) {
		return nil, fmt.Errorf("core: snapshot T=%d but %d tags", snap.T, len(snap.Tags))
	}
	f, err := p.NewSession(rng)
	if err != nil {
		return nil, err
	}
	f.tags = make([]ReleaseTag, 0, len(snap.Tags))
	for t, tag := range snap.Tags {
		if tag.Obs < 0 || tag.Obs >= p.m {
			return nil, fmt.Errorf("core: replay t=%d: observation %d outside [0,%d)", t, tag.Obs, p.m)
		}
		if alpha := math.Float64frombits(tag.AlphaBits); tag.AlphaBits != 0 && (alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0)) {
			return nil, fmt.Errorf("core: replay t=%d: invalid budget %g", t, alpha)
		}
		if err := f.mech.Begin(t); err != nil {
			return nil, fmt.Errorf("core: replay t=%d: mechanism Begin: %w", t, err)
		}
		if err := f.commit(nil, tag.Obs, tag.AlphaBits); err != nil {
			return nil, err
		}
	}
	if f.fp != snap.Fingerprint {
		return nil, fmt.Errorf("%w: replayed %#x, snapshot %#x", ErrFingerprintMismatch, f.fp, snap.Fingerprint)
	}
	if len(snap.RNG) > 0 {
		u, ok := rng.(encoding.BinaryUnmarshaler)
		if !ok {
			return nil, fmt.Errorf("core: snapshot carries RNG state but the supplied rng cannot restore it")
		}
		if err := u.UnmarshalBinary(snap.RNG); err != nil {
			return nil, fmt.Errorf("core: restore session rng: %w", err)
		}
	}
	return f, nil
}
