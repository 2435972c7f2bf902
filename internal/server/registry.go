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

	compiled atomic.Int64 // plans built (including unretained overflow)
	shared   atomic.Int64 // lookups served by an already-compiled plan
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

// newPlanRegistry builds a registry whose retained plans share cache.
func newPlanRegistry(cache *certcache.Cache) *PlanRegistry {
	return &PlanRegistry{
		plans: make(map[planKey]*planEntry),
		cache: cache,
	}
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
		// Publish under the registry lock: Stats iterates entries under
		// r.mu and reads e.plan, so the once alone is not a
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

// Stats returns the registry counters (the /statsz plans section).
func (r *PlanRegistry) Stats() api.PlanStats {
	var ks world.KernelStats
	r.mu.Lock()
	live := len(r.plans)
	for _, e := range r.plans {
		if e.plan != nil {
			ks = ks.Add(e.plan.KernelStats())
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
		FactoredKernels: ks.Factored,
	}
}
