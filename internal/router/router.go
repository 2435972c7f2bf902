// Package router implements the fleet session router: an api.Service
// that owns no sessions itself but shards them across a fleet of
// pristed backends with a consistent-hash ring (internal/ring) and
// keeps placement live through failures and operator rebalances.
//
// Every session-scoped request resolves the session id on the current
// ring and is proxied to the owning backend over that backend's
// api.Client (HTTP or RPC — the router does not care). Fleet-scoped
// requests (ListSessions, Stats) fan out and merge. Backends are
// health-probed with ejection/readmission hysteresis; ring changes
// re-home only the sessions in the moved hash ranges through the
// export→import migration path, with a per-session migration lock that
// parks in-flight requests (rather than failing them) while a session
// is in transit, and a previous-ring fallback so requests racing a
// ring change are retried internally instead of surfacing not_found.
package router

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/api"
	"priste/internal/ring"
)

// Backend names one pristed instance and the client to reach it.
type Backend struct {
	// Name is the backend's stable identity on the ring. Placement is a
	// pure function of the name set, so names must be stable across
	// router restarts (use the backend's address).
	Name string
	// Client reaches the backend: server.NewClient for HTTP,
	// rpc.Dial for the binary protocol.
	Client api.Client
}

// Config parametrises a Router.
type Config struct {
	// Backends is the initial fleet. At least one is required.
	Backends []Backend
	// VirtualNodes per ring member (<= 0: ring.DefaultVirtualNodes).
	VirtualNodes int
	// ProbeInterval is the health-probe cadence (default 1s; negative
	// disables the probe loop — useful when embedding in tests).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// FailAfter consecutive failed probes eject a backend (default 3).
	FailAfter int
	// ReadmitAfter consecutive successful probes readmit an ejected
	// backend (default 2).
	ReadmitAfter int
	// MigrationTimeout bounds one session migration end to end
	// (default 30s).
	MigrationTimeout time.Duration
	// CallTimeout bounds proxied calls that carry no caller context
	// (default 30s).
	CallTimeout time.Duration
	// Logger receives structured router logs (nil: discard).
	Logger *slog.Logger
}

func (c *Config) withDefaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.MigrationTimeout <= 0 {
		c.MigrationTimeout = 30 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// backend is the router's per-member state. The hysteresis fields
// (consecFail/consecOK/lastProbeOK) belong to the probe loop alone.
type backend struct {
	name   string
	client api.Client

	healthy  atomic.Bool
	inRing   atomic.Bool
	draining atomic.Bool
	routes   atomic.Int64
	sessions atomic.Int64 // live count from the last reachable stats/health fan-out

	consecFail  int
	consecOK    int
	lastProbeOK bool
}

// sessionLock serialises a session's requests against its migrations:
// requests hold it shared for their full proxied call, a migration
// holds it exclusive — so new requests park (not fail) until the
// handoff finishes, and the migration waits for in-flight requests to
// drain before exporting.
type sessionLock struct {
	mu  sync.RWMutex
	ref int
}

// Router is the fleet router. It implements api.Service.
type Router struct {
	cfg      Config
	backends map[string]*backend
	order    []string // sorted backend names

	// ring is the current placement; prev the placement before the
	// latest ring change. Session requests the current owner cannot
	// find fall back to the prev owner — the window where a rebalance
	// has flipped the ring but a session's migration has not landed yet.
	ringPtr atomic.Pointer[ring.Ring]
	prevPtr atomic.Pointer[ring.Ring]
	epoch   atomic.Int64

	// rebalanceMu serialises ring mutations and the re-homing they
	// trigger (operator drains, ejections, readmissions).
	rebalanceMu sync.Mutex

	lockMu sync.Mutex
	locks  map[string]*sessionLock

	healthTransitions atomic.Int64
	migStarted        atomic.Int64
	migCompleted      atomic.Int64
	migFailed         atomic.Int64
	misrouteRetries   atomic.Int64

	metrics *routerMetrics
	logger  *slog.Logger
	start   time.Time

	wg       sync.WaitGroup
	closed   chan struct{}
	stopOnce sync.Once
}

var _ api.Service = (*Router)(nil)

// New builds a Router over cfg.Backends, with every backend initially
// healthy and on the ring, and starts the health-probe loop (unless
// cfg.ProbeInterval is negative). Call Shutdown to stop it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	cfg.withDefaults()
	rt := &Router{
		cfg:      cfg,
		backends: make(map[string]*backend, len(cfg.Backends)),
		locks:    make(map[string]*sessionLock),
		logger:   cfg.Logger,
		start:    time.Now(),
		closed:   make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		if b.Name == "" {
			return nil, fmt.Errorf("router: backend with empty name")
		}
		if b.Client == nil {
			return nil, fmt.Errorf("router: backend %q has nil client", b.Name)
		}
		if _, dup := rt.backends[b.Name]; dup {
			return nil, fmt.Errorf("router: duplicate backend name %q", b.Name)
		}
		m := &backend{name: b.Name, client: b.Client}
		m.healthy.Store(true)
		m.inRing.Store(true)
		m.lastProbeOK = true
		rt.backends[b.Name] = m
		rt.order = append(rt.order, b.Name)
	}
	sort.Strings(rt.order)
	rt.ringPtr.Store(ring.New(cfg.VirtualNodes, rt.order...))
	rt.metrics = newRouterMetrics(rt)
	if cfg.ProbeInterval > 0 {
		rt.wg.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// Shutdown stops the probe loop and waits for in-flight background
// rebalances to finish. Proxied requests are not interrupted.
func (rt *Router) Shutdown() {
	rt.stopOnce.Do(func() { close(rt.closed) })
	rt.wg.Wait()
}

// acquire returns the session's lock entry, pinning it in the table.
func (rt *Router) acquire(id string) *sessionLock {
	rt.lockMu.Lock()
	defer rt.lockMu.Unlock()
	l := rt.locks[id]
	if l == nil {
		l = &sessionLock{}
		rt.locks[id] = l
	}
	l.ref++
	return l
}

// release unpins the session's lock entry, dropping it when unused.
func (rt *Router) release(id string, l *sessionLock) {
	rt.lockMu.Lock()
	defer rt.lockMu.Unlock()
	l.ref--
	if l.ref == 0 {
		delete(rt.locks, id)
	}
}

// callCtx derives the context for a proxied call that has none.
func (rt *Router) callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), rt.cfg.CallTimeout)
}

// withSession runs fn against the session's owning backend while
// holding the session's lock shared — a concurrent migration of the
// same session parks this request until the handoff completes.
func (rt *Router) withSession(id string, fn func(c api.Client, name string) error) error {
	l := rt.acquire(id)
	l.mu.RLock()
	defer func() {
		l.mu.RUnlock()
		rt.release(id, l)
	}()
	return rt.routeLocked(id, fn)
}

// routeLocked resolves the session's owner on the current ring and runs
// fn against it. A not_found or wrong_backend answer from the current
// owner while a previous ring placed the session elsewhere is treated
// as a misroute (the request raced a ring change whose migration has
// not landed, or raced it the other way): the call is retried once
// against the previous owner. Callers must hold the session lock.
func (rt *Router) routeLocked(id string, fn func(c api.Client, name string) error) error {
	r := rt.ringPtr.Load()
	owner, ok := r.Owner(id)
	if !ok {
		return api.Errf(api.CodeUnavailable, "router: no backends in ring")
	}
	b := rt.backends[owner]
	b.routes.Add(1)
	rt.metrics.observeRoute(owner)
	err := fn(b.client, owner)
	if err == nil || !(api.CodeOf(err) == api.CodeNotFound || api.RetryAfterReroute(err)) {
		return err
	}
	prev := rt.prevPtr.Load()
	if prev == nil {
		return err
	}
	prevOwner, ok := prev.Owner(id)
	if !ok || prevOwner == owner {
		return err
	}
	pb := rt.backends[prevOwner]
	if pb == nil {
		return err
	}
	rt.misrouteRetries.Add(1)
	rt.metrics.misrouteRetries.Add(1)
	pb.routes.Add(1)
	rt.metrics.observeRoute(prevOwner)
	return fn(pb.client, prevOwner)
}

// newSessionID mirrors the server's id generator: 128 random bits, hex.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("router: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// CreateSession places the session on its ring owner. An absent id is
// generated here (not by a backend) so placement and identity agree.
func (rt *Router) CreateSession(req api.CreateSessionRequest) (api.SessionInfo, error) {
	if err := req.Validate(); err != nil {
		return api.SessionInfo{}, err
	}
	if req.ID == "" {
		req.ID = newSessionID()
	}
	var info api.SessionInfo
	err := rt.withSession(req.ID, func(c api.Client, _ string) error {
		ctx, cancel := rt.callCtx()
		defer cancel()
		var err error
		info, err = c.CreateSession(ctx, req)
		return err
	})
	return info, err
}

// GetSession proxies to the session's owner.
func (rt *Router) GetSession(id string) (api.SessionInfo, error) {
	var info api.SessionInfo
	err := rt.withSession(id, func(c api.Client, _ string) error {
		ctx, cancel := rt.callCtx()
		defer cancel()
		var err error
		info, err = c.Session(ctx, id)
		return err
	})
	return info, err
}

// DeleteSession proxies to the session's owner.
func (rt *Router) DeleteSession(id string) error {
	return rt.withSession(id, func(c api.Client, _ string) error {
		ctx, cancel := rt.callCtx()
		defer cancel()
		return c.DeleteSession(ctx, id)
	})
}

// Step proxies one step to the session's owner, parking (not failing)
// while the session is mid-migration.
func (rt *Router) Step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	var resp api.StepResponse
	err := rt.withSession(id, func(c api.Client, _ string) error {
		var err error
		resp, err = c.Step(ctx, id, loc)
		return err
	})
	return resp, err
}

// StepBatch shards the batch by ring owner, preserving slice order in
// the response and per-session FIFO order within each backend's
// sub-batch (items of one session always share an owner, so their
// relative order survives the split). Per-item failures are reported
// in-band, as the engine does.
func (rt *Router) StepBatch(ctx context.Context, steps []api.BatchStepItem) []api.StepResponse {
	results := make([]api.StepResponse, len(steps))
	if len(steps) == 0 {
		return results
	}
	// One shared lock per distinct session, acquired in sorted order so
	// concurrent batches cannot deadlock against a migration's pending
	// write lock interleaving between two of our RLocks.
	ids := make([]string, 0, len(steps))
	seen := make(map[string]bool, len(steps))
	for _, it := range steps {
		if !seen[it.SessionID] {
			seen[it.SessionID] = true
			ids = append(ids, it.SessionID)
		}
	}
	sort.Strings(ids)
	held := make(map[string]*sessionLock, len(ids))
	for _, id := range ids {
		l := rt.acquire(id)
		l.mu.RLock()
		held[id] = l
	}
	defer func() {
		for _, id := range ids {
			held[id].mu.RUnlock()
			rt.release(id, held[id])
		}
	}()

	r := rt.ringPtr.Load()
	// Split the batch by owner, remembering original positions.
	type shard struct {
		items []api.BatchStepItem
		idx   []int
	}
	shards := make(map[string]*shard)
	for i, it := range steps {
		owner, ok := r.Owner(it.SessionID)
		if !ok {
			results[i] = api.FailedStep(it.SessionID,
				api.Errf(api.CodeUnavailable, "router: no backends in ring"))
			continue
		}
		s := shards[owner]
		if s == nil {
			s = &shard{}
			shards[owner] = s
		}
		s.items = append(s.items, it)
		s.idx = append(s.idx, i)
	}
	var wg sync.WaitGroup
	for owner, s := range shards {
		wg.Add(1)
		go func(owner string, s *shard) {
			defer wg.Done()
			b := rt.backends[owner]
			b.routes.Add(int64(len(s.items)))
			rt.metrics.observeRouteN(owner, int64(len(s.items)))
			rs, err := b.client.StepBatch(ctx, s.items)
			if err != nil || len(rs) != len(s.items) {
				if err == nil {
					err = api.Errf(api.CodeInternal, fmt.Sprintf(
						"router: backend %s returned %d results for %d items", owner, len(rs), len(s.items)))
				}
				for j, it := range s.items {
					results[s.idx[j]] = api.FailedStep(it.SessionID, err)
				}
				return
			}
			for j := range rs {
				results[s.idx[j]] = rs[j]
			}
			// Items the owner did not know fall back to the previous
			// ring's owner — same misroute contract as unary routing.
			prev := rt.prevPtr.Load()
			if prev == nil {
				return
			}
			for j := range rs {
				code := rs[j].Code
				if !(code == api.CodeNotFound || code == api.CodeWrongBackend) {
					continue
				}
				it := s.items[j]
				prevOwner, ok := prev.Owner(it.SessionID)
				if !ok || prevOwner == owner {
					continue
				}
				pb := rt.backends[prevOwner]
				if pb == nil {
					continue
				}
				rt.misrouteRetries.Add(1)
				rt.metrics.misrouteRetries.Add(1)
				pb.routes.Add(1)
				rt.metrics.observeRoute(prevOwner)
				resp, rerr := pb.client.Step(ctx, it.SessionID, it.Loc)
				if rerr != nil {
					resp = api.FailedStep(it.SessionID, rerr)
				}
				results[s.idx[j]] = resp
			}
		}(owner, s)
	}
	wg.Wait()
	return results
}

// ListSessions fans the page request out to every in-ring backend and
// merges the answers into one id-ordered page.
//
// Merged pagination: every backend is asked for the same cursor and
// limit. A backend that returned a full page with a next-cursor has
// only promised ids up to its last returned id (its "horizon") — ids
// beyond that may exist on it but were cut. The merged page therefore
// keeps only ids at or below the minimum horizon across truncated
// backends; everything kept is globally complete, so the merged
// next-cursor (the last kept id) never skips a session.
func (rt *Router) ListSessions(req api.ListSessionsRequest) (api.SessionPage, error) {
	req, err := req.Normalize()
	if err != nil {
		return api.SessionPage{}, err
	}
	members := rt.ringPtr.Load().Members()
	if len(members) == 0 {
		return api.SessionPage{}, api.Errf(api.CodeUnavailable, "router: no backends in ring")
	}
	type answer struct {
		page api.SessionPage
		err  error
	}
	answers := make([]answer, len(members))
	var wg sync.WaitGroup
	for i, name := range members {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := rt.callCtx()
			defer cancel()
			answers[i].page, answers[i].err = b.client.ListSessions(ctx, req)
		}(i, rt.backends[name])
	}
	wg.Wait()

	var merged []api.SessionInfo
	seen := make(map[string]bool)
	horizon := ""    // min last-id among truncated backends ("" = none truncated)
	anyMore := false // some backend has pages beyond this one
	for i, a := range answers {
		if a.err != nil {
			return api.SessionPage{}, api.Errf(api.CodeUnavailable,
				fmt.Sprintf("router: list on backend %s: %v", members[i], a.err))
		}
		for _, s := range a.page.Sessions {
			if !seen[s.ID] { // a session mid-migration can appear twice
				seen[s.ID] = true
				merged = append(merged, s)
			}
		}
		if a.page.NextCursor != "" {
			anyMore = true
			last := a.page.NextCursor
			if n := len(a.page.Sessions); n > 0 {
				last = a.page.Sessions[n-1].ID
			}
			if horizon == "" || last < horizon {
				horizon = last
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	if horizon != "" {
		cut := sort.Search(len(merged), func(i int) bool { return merged[i].ID > horizon })
		merged = merged[:cut]
	}
	if len(merged) > req.Limit {
		merged = merged[:req.Limit]
		anyMore = true
	}
	page := api.SessionPage{Sessions: merged}
	if anyMore && len(merged) > 0 {
		page.NextCursor = merged[len(merged)-1].ID
	}
	return page, nil
}

// ExportSession proxies to the session's owner.
func (rt *Router) ExportSession(ctx context.Context, id string) (api.SessionExport, error) {
	var exp api.SessionExport
	err := rt.withSession(id, func(c api.Client, _ string) error {
		var err error
		exp, err = c.ExportSession(ctx, id)
		return err
	})
	return exp, err
}

// ImportSession places the imported session on its ring owner.
func (rt *Router) ImportSession(exp api.SessionExport) (api.SessionInfo, error) {
	if err := exp.Validate(); err != nil {
		return api.SessionInfo{}, err
	}
	var info api.SessionInfo
	err := rt.withSession(exp.ID, func(c api.Client, _ string) error {
		ctx, cancel := rt.callCtx()
		defer cancel()
		var err error
		info, err = c.ImportSession(ctx, exp)
		return err
	})
	return info, err
}

// Stats fans out to every backend (reachable or not in-ring alike),
// sums the session/step counters and attaches the fleet section.
func (rt *Router) Stats() api.Stats {
	type answer struct {
		stats api.Stats
		err   error
	}
	answers := make([]answer, len(rt.order))
	var wg sync.WaitGroup
	for i, name := range rt.order {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := rt.callCtx()
			defer cancel()
			answers[i].stats, answers[i].err = b.client.Stats(ctx)
		}(i, rt.backends[name])
	}
	wg.Wait()
	var out api.Stats
	for i, a := range answers {
		if a.err != nil {
			continue
		}
		b := rt.backends[rt.order[i]]
		b.sessions.Store(a.stats.Sessions.Live)
		out.Sessions.Live += a.stats.Sessions.Live
		out.Sessions.Created += a.stats.Sessions.Created
		out.Sessions.Evicted += a.stats.Sessions.Evicted
		out.Sessions.Imported += a.stats.Sessions.Imported
		out.Sessions.Exported += a.stats.Sessions.Exported
		out.Steps.Served += a.stats.Steps.Served
		out.Steps.Errors += a.stats.Steps.Errors
		out.Steps.Uniform += a.stats.Steps.Uniform
		out.Steps.QueueRejections += a.stats.Steps.QueueRejections
		out.Steps.RebuiltCommits += a.stats.Steps.RebuiltCommits
	}
	if out.Steps.Served > 0 {
		out.Steps.SuppressionRate = float64(out.Steps.Uniform) / float64(out.Steps.Served)
	}
	out.Fleet = rt.fleetStats()
	return out
}

// fleetStats builds the fleet section from the router's own state.
func (rt *Router) fleetStats() *api.FleetStats {
	r := rt.ringPtr.Load()
	fs := &api.FleetStats{
		Epoch:               rt.epoch.Load(),
		VirtualNodes:        r.VirtualNodes(),
		HealthTransitions:   rt.healthTransitions.Load(),
		MigrationsStarted:   rt.migStarted.Load(),
		MigrationsCompleted: rt.migCompleted.Load(),
		MigrationsFailed:    rt.migFailed.Load(),
		MisrouteRetries:     rt.misrouteRetries.Load(),
	}
	for _, name := range rt.order {
		b := rt.backends[name]
		fs.Members = append(fs.Members, api.FleetMemberStats{
			Name:     name,
			Healthy:  b.healthy.Load(),
			InRing:   b.inRing.Load(),
			Draining: b.draining.Load(),
			Sessions: b.sessions.Load(),
			Routes:   b.routes.Load(),
		})
	}
	return fs
}

// Health reports "ok" while at least one backend is in the ring.
// Sessions is the fleet-wide live count from the last stats fan-out.
func (rt *Router) Health() api.Health {
	inRing := 0
	var sessions int64
	for _, name := range rt.order {
		b := rt.backends[name]
		if b.inRing.Load() {
			inRing++
			sessions += b.sessions.Load()
		}
	}
	status := "ok"
	if inRing == 0 {
		status = "no_backends"
	}
	return api.Health{
		Status:        status,
		Sessions:      sessions,
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
}
