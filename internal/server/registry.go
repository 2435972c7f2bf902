package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"priste/internal/api"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/grid"
	"priste/internal/qp"
	"priste/internal/store"
	"priste/internal/world"
)

// maxPlans bounds the registry. A deployment normally sees a handful of
// distinct parameter combinations; past the bound (e.g. a client
// sweeping ε values) plans are still built but no longer retained, so an
// adversarial parameter stream cannot pin unbounded compiled models.
const maxPlans = 1024

// planKey canonically identifies the engine parameters that determine a
// compiled plan. Sessions differing only in seed (or session id) map to
// the same key and share one plan — one set of compiled world models, one
// emission table, one certified-release cache id. Epsilon, alpha,
// mechanism, delta (δ mechanism only) and the protected-event set all
// change release semantics and therefore the key.
type planKey struct {
	epsilon   float64
	alpha     float64
	mechanism string
	delta     float64
	events    string
}

// String renders the key canonically. Unlike core.Plan ids — which are
// process-unique counters — the rendering is stable across restarts;
// prefixed with the registry's world tag (keyString) it keys persisted
// certified-release cache entries.
func (k planKey) String() string {
	return fmt.Sprintf("eps=%g;alpha=%g;mech=%s;delta=%g;events=%s",
		k.epsilon, k.alpha, k.mechanism, k.delta, k.events)
}

// canonicalEvents renders a parsed event set into a canonical,
// order-insensitive string: two spec lists describing the same events
// (e.g. reordered) share a plan. The rendering walks the event's window
// masks, so it identifies events by semantics, not by spelling.
func canonicalEvents(events []event.Event) string {
	parts := make([]string, len(events))
	for i, ev := range events {
		parts[i] = canonicalEvent(ev)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

func canonicalEvent(ev event.Event) string {
	start, end := ev.Window()
	var b strings.Builder
	fmt.Fprintf(&b, "sticky=%v;w=%d-%d", ev.Sticky(), start, end)
	// Run-length compress by region identity: PRESENCE events return one
	// region for the whole window, so the rendering stays O(region), not
	// O(window·region).
	var prev *grid.Region
	for t := start; t <= end; t++ {
		r := ev.RegionAt(t)
		if r == prev {
			continue
		}
		prev = r
		fmt.Fprintf(&b, ";@%d:", t)
		for s, v := range r.Mask() {
			if v != 0 {
				fmt.Fprintf(&b, "%d,", s)
			}
		}
	}
	return b.String()
}

// PlanRegistry deduplicates compiled core.Plans across sessions: the
// thousands of sessions created with identical grid/chain/events/ε share
// one immutable plan (and, for history-independent mechanisms, one
// certified-release cache) instead of each recompiling the world models
// and re-certifying releases sibling sessions already paid for.
type PlanRegistry struct {
	mu    sync.Mutex
	plans map[planKey]*planEntry
	cache *certcache.Cache // shared across plans; nil disables

	// world is the canonical world-model tag prefixed to persisted cache
	// keys (see newPlanRegistry).
	world string

	// warm holds persisted certified-release cache entries, keyed by the
	// canonical (world + plan key) string, waiting for their plan to be
	// compiled: plan ids are process-unique, so entries can only enter
	// the cache once the restarted process has minted the key's new id.
	warm map[string][]store.CacheEntry

	compiled   atomic.Int64 // plans built (including unretained overflow)
	shared     atomic.Int64 // lookups served by an already-compiled plan
	warmLoaded atomic.Int64 // persisted cache entries injected
}

// planEntry is one registered key. once serialises compilation per key —
// racing creates of the same key wait for one build — without holding the
// registry lock across the O(horizon·m²) compile, so creates for other
// (especially already-compiled) keys are never stalled behind a cold one.
type planEntry struct {
	once sync.Once
	plan *core.Plan
	err  error
}

// newPlanRegistry builds a registry. world canonically identifies the
// server's world model (grid dimensions, cell size, mobility sigma) —
// certified verdicts are only valid for the world they were computed
// against, so it prefixes every persisted cache key.
func newPlanRegistry(cache *certcache.Cache, world string) *PlanRegistry {
	return &PlanRegistry{
		plans: make(map[planKey]*planEntry),
		cache: cache,
		world: world,
	}
}

// keyString renders a plan's restart-stable persisted identity: the
// world tag plus the canonical plan parameters.
func (r *PlanRegistry) keyString(k planKey) string {
	return r.world + ";" + k.String()
}

// lookup returns the shared plan for key, compiling and registering it
// with build on first use. Past maxPlans the plan is compiled unretained
// and without the shared cache: a never-reused plan id must not fill the
// cache's LRU with entries no future session can hit.
func (r *PlanRegistry) lookup(key planKey, build func() (*core.Plan, error)) (*core.Plan, error) {
	r.mu.Lock()
	e, found := r.plans[key]
	retained := found
	if !found && len(r.plans) < maxPlans {
		e = &planEntry{}
		r.plans[key] = e
		retained = true
	}
	r.mu.Unlock()

	if !retained {
		p, err := build()
		if err == nil {
			r.compiled.Add(1)
		}
		return p, err
	}
	if found {
		r.shared.Add(1)
	}
	e.once.Do(func() {
		p, err := build()
		// Publish under the registry lock: exportCache iterates entries
		// under r.mu and reads e.plan, so the once alone is not a
		// happens-before edge for it.
		r.mu.Lock()
		e.plan, e.err = p, err
		r.mu.Unlock()
		if err != nil {
			return
		}
		r.compiled.Add(1)
		if r.cache != nil {
			p.EnableCache(r.cache)
			r.injectWarm(key, p)
		}
	})
	if e.err != nil {
		// Builds fail deterministically from the key's parameters, but a
		// dead entry must not occupy a registry slot.
		r.mu.Lock()
		if r.plans[key] == e {
			delete(r.plans, key)
		}
		r.mu.Unlock()
		return nil, e.err
	}
	return e.plan, nil
}

// Len returns the number of retained plans.
func (r *PlanRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.plans)
}

// Cache returns the shared certified-release cache, or nil when disabled.
func (r *PlanRegistry) Cache() *certcache.Cache { return r.cache }

// setWarm parks persisted cache entries until their plans compile.
// Called once at startup, before any session is created.
func (r *PlanRegistry) setWarm(entries []store.CacheEntry) {
	if len(entries) == 0 || r.cache == nil {
		return
	}
	warm := make(map[string][]store.CacheEntry)
	for _, e := range entries {
		warm[e.PlanKey] = append(warm[e.PlanKey], e)
	}
	r.mu.Lock()
	r.warm = warm
	r.mu.Unlock()
}

// injectWarm moves the key's parked entries into the live cache under
// the freshly-minted plan id. Only history-independent plans carry a
// cache; entries for a plan that compiled stateful are dropped.
func (r *PlanRegistry) injectWarm(key planKey, plan *core.Plan) {
	ks := r.keyString(key)
	r.mu.Lock()
	entries := r.warm[ks]
	delete(r.warm, ks)
	r.mu.Unlock()
	if len(entries) == 0 || plan.Cache() == nil {
		return
	}
	verdict := func(ok bool) qp.Result {
		if ok {
			return qp.Result{Verdict: qp.Satisfied}
		}
		return qp.Result{Verdict: qp.Violated}
	}
	for _, e := range entries {
		k := certcache.Key{
			Plan:      plan.ID(),
			Event:     e.Event,
			T:         e.T,
			History:   e.History,
			AlphaBits: e.AlphaBits,
			Obs:       e.Obs,
		}
		r.cache.Put(k, qp.ReleaseDecision{
			OK:   e.Eq15OK && e.Eq16OK,
			Eq15: verdict(e.Eq15OK),
			Eq16: verdict(e.Eq16OK),
		})
		r.warmLoaded.Add(1)
	}
}

// exportCache renders the live cache as persistable entries: each cached
// decision whose plan id is still registered is keyed by the canonical
// plan-key string (stable across restarts). The format records, per
// condition, whether it was certified to hold; a violated condition and
// one the solver skipped because the other was violated are both written
// as not-OK, and injectWarm reads either back as a certified rejection.
func (r *PlanRegistry) exportCache() []store.CacheEntry {
	if r.cache == nil {
		return nil
	}
	byID := make(map[uint64]string)
	r.mu.Lock()
	for key, e := range r.plans {
		if e.plan != nil {
			byID[e.plan.ID()] = r.keyString(key)
		}
	}
	// Persisted entries still parked (their plan never recompiled this
	// life) carry over verbatim — a restart must not erode warmth for
	// plans it happened not to touch.
	var out []store.CacheEntry
	for _, parked := range r.warm {
		out = append(out, parked...)
	}
	r.mu.Unlock()
	r.cache.Range(func(k certcache.Key, dec qp.ReleaseDecision) bool {
		ks, ok := byID[k.Plan]
		if !ok {
			return true // unretained overflow plan: no stable identity
		}
		out = append(out, store.CacheEntry{
			PlanKey:   ks,
			Event:     k.Event,
			T:         k.T,
			History:   k.History,
			AlphaBits: k.AlphaBits,
			Obs:       k.Obs,
			Eq15OK:    dec.Eq15.Verdict == qp.Satisfied,
			Eq16OK:    dec.Eq16.Verdict == qp.Satisfied,
		})
		return true
	})
	return out
}

// Stats returns the registry counters (the /statsz plans section).
func (r *PlanRegistry) Stats() api.PlanStats {
	var ks world.KernelStats
	var shChecks, shFallbacks int64
	r.mu.Lock()
	live := len(r.plans)
	for _, e := range r.plans {
		if e.plan != nil {
			ks = ks.Add(e.plan.KernelStats())
			c, fb := e.plan.ShadowStats()
			shChecks += c
			shFallbacks += fb
		}
	}
	r.mu.Unlock()
	return api.PlanStats{
		Live:            int64(live),
		Compiled:        r.compiled.Load(),
		SharedHits:      r.shared.Load(),
		SparseKernels:   int64(ks.Sparse),
		DenseKernels:    int64(ks.Dense),
		KernelDensity:   ks.Density,
		BlockedKernels:  ks.Blocked,
		BandedKernels:   ks.Banded,
		ShadowChecks:    shChecks,
		ShadowFallbacks: shFallbacks,
	}
}

// WarmLoaded returns the number of persisted certified-release cache
// entries injected into the live cache so far.
func (r *PlanRegistry) WarmLoaded() int64 { return r.warmLoaded.Load() }
