// Package server implements the pristed serving subsystem: a long-lived
// concurrent multi-user release service layered over the core PriSTE
// engine. Each user owns a Session — a core.Framework with its own RNG,
// mechanism and event set — managed by a sharded SessionManager with
// idle-TTL and LRU eviction. Step calls are executed by a worker pool
// that keeps every session single-writer with per-session FIFO ordering
// and bounded-queue backpressure, and the whole thing is exposed as an
// HTTP/JSON API (see Handler) with a typed Client.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/api"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/obs"
	"priste/internal/par"
	"priste/internal/store"
	"priste/internal/world"
)

// Server is the canonical implementation of the transport-neutral
// service surface: the HTTP handlers (Handler), the binary RPC server
// (internal/rpc) and the pristectl CLI are all thin codecs over these
// methods.
var (
	_ api.Service      = (*Server)(nil)
	_ api.AsyncStepper = (*Server)(nil)
)

// Server is one pristed instance: the shared world model (grid, mobility
// chain), the plan registry deduplicating compiled engines across
// sessions, the session registry, the step worker pool, and the service
// counters. Create with New, expose with Handler, release with Close.
type Server struct {
	cfg      Config
	g        *grid.Grid
	chain    *markov.Chain
	tp       world.TransitionProvider
	pi       mat.Vector
	mgr      *Manager
	registry *PlanRegistry
	pool     *pool
	hub      *streamHub
	metrics  *Metrics
	logger   *slog.Logger
	// start anchors the uptime reported by Health and Stats.
	start time.Time

	// streamWindows tracks in-flight (submitted, not yet acknowledged)
	// streamed steps per session shard — the RPC stream window occupancy
	// surfaced in /statsz. Sharded with the session registry so the
	// per-shard breakdown lines up with where the sessions live.
	streamWindows [numShards]atomic.Int64

	// worldTag canonically identifies the world model; it scopes every
	// persisted identity (session journals, warm cache keys) so state
	// certified against one world is never replayed into another.
	worldTag string

	// durable is false for the Null store; it gates the per-step
	// persistence work so in-memory deployments pay nothing.
	durable bool
	// createMu serialises the journal+register tail of CreateSession so
	// orphan-journal reclamation (an id journaled but no longer live,
	// e.g. evicted during an over-capacity rehydrate) cannot race a
	// concurrent create of the same id. Plan compilation stays outside
	// the lock.
	createMu sync.Mutex
	// saveCacheMu serialises warm-cache persistence: the periodic
	// cacheSaver tick and the final Shutdown save must not write the
	// same file concurrently. lastCacheSig (guarded by it) is the cache
	// counter signature at the last successful save; unchanged → skip.
	saveCacheMu  sync.Mutex
	lastCacheSig [4]int64
	// draining is set by Shutdown: new sessions and steps are rejected
	// with ErrDraining while pending work completes and state flushes.
	draining atomic.Bool

	janitorQuit chan struct{}
	janitorWG   sync.WaitGroup
	stopBgOnce  sync.Once

	closeOnce sync.Once
}

// New builds a server: validates the config, precomputes the shared world
// model, and starts the worker pool and the idle-session janitor.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g, err := grid.New(cfg.GridW, cfg.GridH, cfg.Cell)
	if err != nil {
		return nil, fmt.Errorf("server: grid: %w", err)
	}
	chain, err := markov.GaussianChain(g, cfg.Sigma)
	if err != nil {
		return nil, fmt.Errorf("server: mobility chain: %w", err)
	}
	if cfg.SparseCutoff > 0 {
		chain, err = chain.Sparsified(cfg.SparseCutoff)
		if err != nil {
			return nil, fmt.Errorf("server: sparsify mobility chain: %w", err)
		}
	}
	// Fail fast on an unparsable default event set.
	if _, err := eventspec.ParseAll(cfg.Events, g.States(), 0); err != nil {
		return nil, err
	}
	metrics := newMetrics()
	workers := cfg.Workers
	if workers < 0 {
		workers = 0
	}
	if cfg.Parallelism > 0 {
		// The kernel pool is process-global (shared with any other
		// server in the process); 0 leaves it tracking GOMAXPROCS.
		par.Default().SetParallelism(cfg.Parallelism)
	}
	var cache *certcache.Cache
	if cfg.CertCacheSize > 0 {
		cache = certcache.New(cfg.CertCacheSize)
	}
	_, isNull := cfg.Store.(store.Null)
	// The sparse cutoff changes the transition probabilities, so it is
	// part of the world identity; cutoff 0 keeps the pre-cutoff tag so
	// existing journals stay replayable. The kernel mode is NOT part of
	// the tag: dense and sparse kernels over the same chain are
	// bit-equivalent, so journals move freely between them.
	worldTag := fmt.Sprintf("grid=%dx%d;cell=%g;sigma=%g", cfg.GridW, cfg.GridH, cfg.Cell, cfg.Sigma)
	if cfg.SparseCutoff > 0 {
		worldTag += fmt.Sprintf(";cutoff=%g", cfg.SparseCutoff)
	}
	s := &Server{
		cfg:         cfg,
		g:           g,
		chain:       chain,
		tp:          world.NewHomogeneous(chain),
		pi:          markov.Uniform(g.States()),
		mgr:         newManager(cfg.MaxSessions, cfg.SessionTTL, metrics),
		registry:    newPlanRegistry(cache, worldTag),
		pool:        newPool(workers, cfg.SchedAffinity, cfg.DrainBatch, metrics, cfg.Logger, cfg.SlowStep),
		hub:         newStreamHub(cfg.StreamBuffer, metrics),
		metrics:     metrics,
		logger:      cfg.Logger,
		start:       time.Now(),
		worldTag:    worldTag,
		durable:     !isNull,
		janitorQuit: make(chan struct{}),
	}
	// Every committed release fans out to the session's push subscribers
	// (the SSE release stream) regardless of which transport submitted
	// the step. The worker publishes after acknowledgement, still inside
	// the session's single-writer context, so per-session publish order
	// is exactly commit order.
	s.pool.onRelease = func(sess *Session, res core.StepResult) {
		s.hub.publish(sess.id, toStepResponse("", res))
	}
	// Any registry exit — delete, eviction, TTL sweep, shutdown —
	// terminates the session's release subscribers.
	s.mgr.onClosed = s.hub.closeSession
	s.registerExternalMetrics()
	if s.durable {
		s.pool.onStep = s.persistStep
		s.pool.onSnap = s.snapshotSession
		// Optional store capabilities: the FileStore times its WAL
		// append fsyncs into the wal_fsync histogram and logs its
		// load-time anomalies structurally.
		if so, ok := cfg.Store.(interface{ SetSyncObserver(func(time.Duration)) }); ok {
			so.SetSyncObserver(metrics.walFsync.Observe)
		}
		if sl, ok := cfg.Store.(interface{ SetLogger(*slog.Logger) }); ok {
			sl.SetLogger(cfg.Logger)
		}
		if entries, err := cfg.Store.LoadCache(); err == nil {
			s.registry.setWarm(entries)
		} else {
			s.metrics.storeWarmLoadFailed.Add(1)
			s.logger.Warn("server: warm cert-cache load failed; starting cold", "err", err)
		}
		if err := s.rehydrate(); err != nil {
			s.pool.stop()
			return nil, err
		}
		// Tombstone sessions removed by delete/evict/TTL. Installed only
		// after rehydration: a restart with more persisted sessions than
		// MaxSessions evicts the overflow from memory but must not
		// destroy its journals — the data outlives the capacity squeeze.
		// CloseAll (shutdown) also bypasses the hook. The liveness check
		// under createMu closes the remove/re-create race: if the id went
		// live again, its journal belongs to the new session (the
		// re-create already reclaimed the old one) and must survive.
		// Callers therefore must never hold createMu across a Manager
		// eviction or Remove.
		s.mgr.onRemove = func(id string) {
			s.createMu.Lock()
			defer s.createMu.Unlock()
			if _, ok := s.mgr.Get(id); ok {
				return
			}
			if err := cfg.Store.DeleteSession(id); err != nil {
				s.metrics.storeTombstoneErrors.Add(1)
			}
		}
		// Persist the certified-release cache periodically so a crash
		// loses at most one interval of warmth (Shutdown writes the final
		// copy).
		s.janitorWG.Add(1)
		go s.cacheSaver()
	}
	if cfg.SessionTTL > 0 {
		s.janitorWG.Add(1)
		go s.janitor()
	}
	return s, nil
}

// registerExternalMetrics bridges state owned outside Metrics — the
// plan registry, the certified-release cache and the durability store —
// into the /metricsz registry as scrape-time functions.
func (s *Server) registerExternalMetrics() {
	reg := s.metrics.Registry()
	reg.GaugeFunc("priste_plans_live", "Retained compiled plans.",
		func() float64 { return float64(s.registry.Stats().Live) })
	reg.CounterFunc("priste_plans_compiled_total", "Plan compilations (plan-level cache misses).",
		func() float64 { return float64(s.registry.Stats().Compiled) })
	if c := s.registry.Cache(); c != nil {
		reg.CounterFunc("priste_cert_cache_hits_total", "Certified-release cache hits.",
			func() float64 { return float64(c.Stats().Hits) })
		reg.CounterFunc("priste_cert_cache_misses_total", "Certified-release cache misses.",
			func() float64 { return float64(c.Stats().Misses) })
		reg.GaugeFunc("priste_cert_cache_entries", "Certified-release cache entries.",
			func() float64 { return float64(c.Stats().Entries) })
	}
	if s.durable {
		reg.CounterFunc("priste_store_appends_total", "WAL step records journaled.",
			func() float64 { return float64(s.cfg.Store.Stats().Appends) })
		reg.CounterFunc("priste_store_fsyncs_total", "Explicit data syncs (0 without -fsync).",
			func() float64 { return float64(s.cfg.Store.Stats().Fsyncs) })
		reg.CounterFunc("priste_store_snapshots_total", "Snapshot compactions.",
			func() float64 { return float64(s.cfg.Store.Stats().Snapshots) })
	}
	// Kernel worker pool (process-global, see internal/par).
	reg.GaugeFunc("priste_pool_parallelism", "Effective kernel-pool width (configured or GOMAXPROCS).",
		func() float64 { return float64(par.Default().Stats().Parallelism) })
	reg.GaugeFunc("priste_pool_busy_workers", "Pool helpers currently executing kernel tiles.",
		func() float64 { return float64(par.Default().Stats().Busy) })
	reg.CounterFunc("priste_pool_parallel_dispatch_total", "Kernels dispatched across the pool.",
		func() float64 { return float64(par.Default().Stats().ParallelDispatch) })
	reg.CounterFunc("priste_pool_serial_dispatch_total", "Kernels kept on their serial path (below cutoff or budget spent).",
		func() float64 { return float64(par.Default().Stats().SerialDispatch) })
	reg.CounterFunc("priste_pool_steals_total", "Kernel tiles executed by pool helpers rather than the submitter.",
		func() float64 { return float64(par.Default().Stats().Steals) })
}

// cacheSaveInterval paces the periodic warm-cache persistence.
const cacheSaveInterval = time.Minute

// cacheSaver periodically persists the certified-release cache.
func (s *Server) cacheSaver() {
	defer s.janitorWG.Done()
	tick := time.NewTicker(cacheSaveInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.saveCache()
		case <-s.janitorQuit:
			return
		}
	}
}

// saveCache persists the certified-release cache when it has content
// and has changed since the last save: an idle deployment must not
// rewrite and fsync a multi-MB file every tick for zero new
// information. Misses approximate insertions (every insert follows a
// miss) and evictions/entries catch churn.
func (s *Server) saveCache() {
	s.saveCacheMu.Lock()
	defer s.saveCacheMu.Unlock()
	var sig [4]int64
	if c := s.registry.Cache(); c != nil {
		cs := c.Stats()
		sig = [4]int64{cs.Misses, cs.Evictions, cs.Entries, s.registry.WarmLoaded()}
	}
	if sig == s.lastCacheSig {
		return
	}
	if entries := s.registry.exportCache(); len(entries) > 0 {
		if s.cfg.Store.SaveCache(entries) == nil {
			s.lastCacheSig = sig
		}
	}
}

// rehydrate rebuilds every surviving journaled session: the plan is
// recompiled (or shared) from the persisted metadata and the committed
// release-tag history is validated against it and re-committed to the
// session's tag log, verifying the rolling history fingerprint; the
// session RNG resumes from the persisted PCG state. That is integer work
// per tag: a history-independent session's quantifier operators are
// rebuilt from the log by whichever worker serves its first cache-missing
// step (core.Plan.Restore), so start-up does not wait for the sum of all
// sessions' operator products. A session that fails replay is counted
// and skipped with its journal preserved — it must not wedge startup,
// and the next restart (e.g. under the original world model) may still
// recover it.
func (s *Server) rehydrate() error {
	states, err := s.cfg.Store.LoadSessions()
	if err != nil {
		return fmt.Errorf("server: load sessions: %w", err)
	}
	for _, st := range states {
		start := time.Now()
		sess, err := s.restoreSession(st)
		if err != nil {
			// Keep the journal: a replay failure may be an operator
			// mistake (e.g. restarting under a different world model)
			// that the next restart can still recover from. The id stays
			// reclaimable through the orphan path in register.
			s.metrics.storeReplayFailures.Add(1)
			s.logger.Warn("server: session replay failed; journal preserved",
				"session", st.Meta.ID, "steps", len(st.Tags), "err", err)
			continue
		}
		if err := s.mgr.Put(sess); err != nil {
			// Duplicate persisted id: keep the first.
			s.metrics.storeReplayFailures.Add(1)
			s.logger.Warn("server: duplicate persisted session id; keeping the first",
				"session", st.Meta.ID, "err", err)
			continue
		}
		s.mgr.enforceCap()
		s.metrics.storeReplayed.Add(1)
		s.metrics.storeReplayNanos.Add(int64(time.Since(start)))
	}
	return nil
}

func (s *Server) restoreSession(st store.SessionState) (*Session, error) {
	if st.Meta.World != s.worldTag {
		return nil, fmt.Errorf("server: session %q was journaled for world %q, this server runs %q",
			st.Meta.ID, st.Meta.World, s.worldTag)
	}
	events, err := eventspec.ParseAll(st.Meta.Events, s.g.States(), 0)
	if err != nil {
		return nil, err
	}
	plan, err := s.buildPlan(st.Meta.Epsilon, st.Meta.Alpha, st.Meta.Mechanism, st.Meta.Delta, events)
	if err != nil {
		return nil, err
	}
	snap := core.Snapshot{
		T:           len(st.Tags),
		Tags:        make([]core.ReleaseTag, len(st.Tags)),
		Fingerprint: st.Fingerprint,
		RNG:         st.RNG,
	}
	for i, tag := range st.Tags {
		snap.Tags[i] = core.ReleaseTag{AlphaBits: tag.AlphaBits, Obs: tag.Obs}
	}
	// With no persisted RNG state (a session that never stepped), the
	// seed-fresh RNG below is exactly the original starting state.
	fw, err := plan.Restore(snap, core.NewSessionRNG(st.Meta.Seed))
	if err != nil {
		return nil, err
	}
	now := time.Now()
	sess := &Session{
		id:        st.Meta.ID,
		created:   time.Unix(0, st.Meta.CreatedUnixNano),
		fw:        fw,
		epsilon:   st.Meta.Epsilon,
		alpha:     st.Meta.Alpha,
		mechanism: st.Meta.Mechanism,
		delta:     st.Meta.Delta,
		events:    st.Meta.Events,
		seed:      st.Meta.Seed,
		storeGen:  st.Gen,
	}
	sess.steps.Store(int64(fw.T()))
	sess.touch(now)
	return sess, nil
}

// persistStep journals one committed release write-ahead of its
// acknowledgement: the WAL record carries the release tag, the rolling
// fingerprint after it, and the post-step RNG state. Every
// SnapshotEvery-th step the WAL is compacted into a snapshot. Runs on
// the worker holding the session's scheduled token. An append failure
// degrades durability, not serving: the step stands, the failure is
// counted, and recovery keeps the longest consistent journal prefix.
func (s *Server) persistStep(sess *Session, res core.StepResult) {
	rng, err := sess.fw.RNGState()
	if err != nil {
		s.metrics.storeAppendErrors.Add(1)
		return
	}
	rec := store.StepRecord{
		T:           res.T,
		Tag:         store.Tag{AlphaBits: math.Float64bits(res.Alpha), Obs: res.Obs},
		Fingerprint: sess.fw.Fingerprint(),
		RNG:         rng,
	}
	if err := s.cfg.Store.AppendStep(sess.id, sess.storeGen, rec); err != nil {
		s.metrics.storeAppendErrors.Add(1)
		return
	}
	// Compaction is deferred until after this step's acknowledgement
	// (pool.onSnap): the WAL already covers everything, so the snapshot
	// must not sit on the ack path.
	if every := s.cfg.SnapshotEvery; every > 0 && sess.steps.Load()%int64(every) == 0 {
		sess.needSnap = true
	}
}

// snapshotSession compacts a session's WAL into a snapshot. The caller
// must own the session's single-writer context (its scheduled token, or
// a drained server).
func (s *Server) snapshotSession(sess *Session) {
	snap, err := sess.fw.Snapshot()
	if err != nil {
		s.metrics.storeSnapshotErrors.Add(1)
		return
	}
	state := store.SessionState{
		Meta:        sess.meta(s.worldTag),
		Tags:        make([]store.Tag, len(snap.Tags)),
		Fingerprint: snap.Fingerprint,
		RNG:         snap.RNG,
	}
	for i, tag := range snap.Tags {
		state.Tags[i] = store.Tag{AlphaBits: tag.AlphaBits, Obs: tag.Obs}
	}
	if err := s.cfg.Store.WriteSnapshot(state, sess.storeGen); err != nil {
		s.metrics.storeSnapshotErrors.Add(1)
	}
}

// janitor periodically evicts idle sessions.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	interval := s.cfg.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			s.mgr.sweep(now)
		case <-s.janitorQuit:
			return
		}
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Metrics returns the live service counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Sessions returns the session registry.
func (s *Server) Sessions() *Manager { return s.mgr }

// Plans returns the plan registry.
func (s *Server) Plans() *PlanRegistry { return s.registry }

// Stats implements api.Service: the full /statsz document — service
// counters plus the plan-registry, certified-release cache, durability
// and per-transport sections.
func (s *Server) Stats() api.Stats {
	st := s.metrics.Snapshot()
	st.Runtime.UptimeSeconds = time.Since(s.start).Seconds()
	st.Plans = s.registry.Stats()
	if c := s.registry.Cache(); c != nil {
		cs := c.Stats()
		st.CertCache = api.CertCacheStats{
			Enabled:   true,
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
		}
		if total := cs.Hits + cs.Misses; total > 0 {
			st.CertCache.HitRate = float64(cs.Hits) / float64(total)
		}
	}
	st.Streams.PerShardWindow = make([]int64, numShards)
	for i := range s.streamWindows {
		n := s.streamWindows[i].Load()
		st.Streams.PerShardWindow[i] = n
		st.Streams.WindowOccupancy += n
	}
	ps := par.Default().Stats()
	st.Pool = api.PoolStats{
		Parallelism:      ps.Parallelism,
		Workers:          ps.Workers,
		Busy:             ps.Busy,
		External:         ps.External,
		ParallelDispatch: ps.ParallelDispatch,
		SerialDispatch:   ps.SerialDispatch,
		Steals:           ps.Steals,
	}
	if ps.Workers > 0 {
		st.Pool.Occupancy = float64(ps.Busy) / float64(ps.Workers)
	}
	st.Store = api.StoreStats{
		Stats:           s.cfg.Store.Stats(),
		AppendErrors:    s.metrics.storeAppendErrors.Load(),
		SnapshotErrors:  s.metrics.storeSnapshotErrors.Load(),
		TombstoneErrors: s.metrics.storeTombstoneErrors.Load(),
		Replayed:        s.metrics.storeReplayed.Load(),
		ReplayFailures:  s.metrics.storeReplayFailures.Load(),
		ReplayMicros:    float64(s.metrics.storeReplayNanos.Load()) / 1e3,
		WarmLoaded:      s.registry.WarmLoaded(),
		WarmLoadFailed:  s.metrics.storeWarmLoadFailed.Load(),
	}
	return st
}

// Close stops the janitor, closes every session (failing pending steps
// with ErrSessionClosed), stops the worker pool and closes the store.
// Safe to call more than once. Pending steps die unflushed — for a clean
// drain-and-flush stop, use Shutdown.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.stopBackground()
		s.mgr.CloseAll()
		s.pool.stop()
		_ = s.cfg.Store.Close()
	})
}

// stopBackground stops the janitor and cache-saver goroutines; it is
// idempotent and called by both Close and (earlier) Shutdown — a TTL
// sweep firing mid-shutdown would tombstone journals that graceful
// shutdown promises survive.
func (s *Server) stopBackground() {
	s.stopBgOnce.Do(func() {
		close(s.janitorQuit)
		s.janitorWG.Wait()
	})
}

// Shutdown gracefully stops the server: it stops accepting new sessions
// and steps (ErrDraining, HTTP 503), waits for every session's pending
// queue to drain (bounded by ctx), compacts each drained session into a
// final snapshot, persists the certified-release cache, and only then
// closes the sessions, pool and store. Steps accepted before Shutdown
// are served and journaled, not failed. Returns ctx.Err() when the
// deadline cut the drain short; the WAL still covers whatever the
// snapshots missed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// No TTL sweep may run once the drain starts: an eviction here would
	// tombstone a journal this shutdown exists to preserve.
	s.stopBackground()
	err := s.awaitDrain(ctx)
	// Stop the workers before flushing: a step that slipped past the
	// draining check concurrently with the drain must not mutate a
	// framework while its final snapshot is being written. Jobs it
	// enqueued are failed by CloseAll below.
	s.pool.stop()
	if s.durable {
		s.mgr.forEach(s.snapshotSession)
		s.saveCache()
	}
	s.Close()
	return err
}

// awaitDrain blocks until no session has pending or in-flight steps, or
// ctx expires.
func (s *Server) awaitDrain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		busy := false
		s.mgr.forEach(func(sess *Session) {
			if !sess.idle() {
				busy = true
			}
		})
		if !busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// CreateSession implements api.Service: it builds and registers a
// session from a creation request, applying the server's privacy
// defaults for absent fields. The compiled engine is shared: sessions
// whose canonical parameters (ε, α, mechanism, δ, protected events)
// match an existing plan reuse it — only the RNG, quantifier state and
// (for δ) mechanism state are per-session. At capacity the least
// recently used session is evicted to make room.
func (s *Server) CreateSession(req api.CreateSessionRequest) (api.SessionInfo, error) {
	sess, err := s.createSession(req)
	if err != nil {
		return api.SessionInfo{}, err
	}
	return sessionInfo(sess), nil
}

func (s *Server) createSession(req api.CreateSessionRequest) (*Session, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	eps := req.Epsilon
	if eps == 0 {
		eps = s.cfg.Epsilon
	}
	alpha := req.Alpha
	if alpha == 0 {
		alpha = s.cfg.Alpha
	}
	mechName := req.Mechanism
	if mechName == "" {
		mechName = s.cfg.Mechanism
	}
	specs := req.Events
	if len(specs) == 0 {
		specs = s.cfg.Events
	}
	events, err := eventspec.ParseAll(specs, s.g.States(), 0)
	if err != nil {
		return nil, err
	}
	delta := 0.0
	if mechName == MechanismDelta {
		delta = s.cfg.Delta
		if req.Delta != nil {
			delta = *req.Delta
		}
	}
	plan, err := s.buildPlan(eps, alpha, mechName, delta, events)
	if err != nil {
		return nil, err
	}

	var seed int64
	if req.Seed != nil {
		seed = *req.Seed
	} else {
		seed = randomSeed()
	}
	fw, err := plan.NewSession(core.NewSessionRNG(seed))
	if err != nil {
		return nil, err
	}

	id := req.ID
	if id == "" {
		id = newSessionID()
	}
	now := time.Now()
	sess := &Session{
		id:        id,
		created:   now,
		fw:        fw,
		epsilon:   eps,
		alpha:     alpha,
		mechanism: mechName,
		delta:     delta,
		events:    specs,
		seed:      seed,
	}
	sess.touch(now)
	if err := s.register(sess, nil); err != nil {
		return nil, err
	}
	// Capacity eviction runs outside createMu: its Remove path fires the
	// onRemove tombstone hook, which itself takes createMu.
	s.mgr.enforceCap()
	return sess, nil
}

// register journals (durable stores) and registers a new session; a
// non-nil imported state journals the migrated history atomically
// (store.ImportSession) instead of opening an empty WAL. Journal before
// registering: once the session is steppable, a concurrent step
// (clients may know the id ahead of the create response) must find its
// WAL open, or the acknowledged step would be lost and leave a gap that
// truncates replay. createMu serialises this tail, which makes the
// not-live-but-journaled check race-free: an id whose journal survives
// without a live session (evicted during an over-capacity rehydrate, or
// refused replay) is reported ErrSessionExists — its certified history
// must never be silently truncated by a create; the owner reclaims it
// with an explicit DELETE first.
func (s *Server) register(sess *Session, imported *store.SessionState) error {
	if !s.durable {
		return s.mgr.Put(sess)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if _, ok := s.mgr.Get(sess.id); ok {
		return ErrSessionExists
	}
	var gen uint64
	var err error
	if imported != nil {
		gen, err = s.cfg.Store.ImportSession(*imported)
	} else {
		gen, err = s.cfg.Store.CreateSession(sess.meta(s.worldTag))
	}
	if err != nil {
		if errors.Is(err, store.ErrAlreadyJournaled) {
			return fmt.Errorf("%w (its journal survives; DELETE it to start over)", ErrSessionExists)
		}
		return fmt.Errorf("server: journal session: %w", err)
	}
	sess.storeGen = gen
	if err := s.mgr.Put(sess); err != nil {
		_ = s.cfg.Store.DeleteSession(sess.id)
		return err
	}
	return nil
}

// buildPlan returns the shared compiled plan for the canonical engine
// parameters, compiling it on first use. delta is only meaningful for
// MechanismDelta and must be 0 otherwise.
func (s *Server) buildPlan(eps, alpha float64, mechName string, delta float64, events []event.Event) (*core.Plan, error) {
	var mf core.MechanismFactory
	switch mechName {
	case MechanismLaplace:
		mf = func() (lppm.Perturber, error) { return lppm.NewPlanarLaplace(s.g), nil }
	case MechanismDelta:
		mf = func() (lppm.Perturber, error) { return lppm.NewDeltaLocationSet(s.g, s.chain, s.pi, delta) }
	default:
		return nil, fmt.Errorf("server: unknown mechanism %q (want %q or %q)", mechName, MechanismLaplace, MechanismDelta)
	}
	key := planKey{
		epsilon:   eps,
		alpha:     alpha,
		mechanism: mechName,
		delta:     delta,
		events:    canonicalEvents(events),
	}
	return s.registry.lookup(key, func() (*core.Plan, error) {
		coreCfg := core.DefaultConfig(eps, alpha)
		coreCfg.QPTimeout = s.cfg.QPTimeout
		// Validated in New; the zero mode (auto) is the error fallback.
		coreCfg.Kernel, _ = s.cfg.kernelMode()
		coreCfg.Shadow = s.cfg.Shadow
		return core.NewPlan(mf, s.tp, events, coreCfg)
	})
}

// toStepResponse renders a completed step outcome as the wire type.
func toStepResponse(id string, res core.StepResult) api.StepResponse {
	return api.StepResponse{
		SessionID:              id,
		T:                      res.T,
		Obs:                    res.Obs,
		Alpha:                  res.Alpha,
		Attempts:               res.Attempts,
		ConservativeRejections: res.ConservativeRejections,
		Uniform:                res.Uniform,
		CheckMicros:            float64(res.CheckTime) / 1e3,
	}
}

// Step implements api.Service: it enqueues one step on a session and
// waits for its certified release (or ctx expiry — the step itself
// still completes and is journaled). FIFO order among concurrent Step
// calls on the same session is the order their enqueues linearise in;
// the transports and the batch endpoint preserve their own arrival
// order.
func (s *Server) Step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	done, err := s.stepAsync(ctx, id, loc)
	if err != nil {
		return api.StepResponse{}, err
	}
	select {
	case out := <-done:
		if out.err != nil {
			return api.StepResponse{}, out.err
		}
		return toStepResponse("", out.res), nil
	case <-ctx.Done():
		return api.StepResponse{}, ctx.Err()
	}
}

// StepAsync implements api.AsyncStepper for pipelining transports: the
// step is enqueued before StepAsync returns (fixing its FIFO position)
// and the buffered channel delivers the wire-typed outcome straight
// from the worker — no forwarding goroutine on the hot path. ctx
// carries the observability tags (transport, trace ID) and is consulted
// only at enqueue time.
func (s *Server) StepAsync(ctx context.Context, id string, loc int) (<-chan api.StepOutcome, error) {
	j := stepJob{loc: loc, apiDone: make(chan api.StepOutcome, 1)}
	if err := s.enqueueStep(ctx, id, j); err != nil {
		return nil, err
	}
	return j.apiDone, nil
}

// stepWindowed serves one streamed micro-batch on a session: every loc
// is enqueued in order, with pump-style backpressure — a full queue
// settles this batch's own head-of-line release (freeing its queue
// slot) instead of surfacing a 429 — and the certified releases are
// collected in commit order. On a terminal error the releases committed
// before it are returned alongside it and the remaining locs are never
// submitted, so the caller can report exactly how far the stream got.
func (s *Server) stepWindowed(ctx context.Context, id string, locs []int) ([]api.StepResponse, error) {
	results := make([]api.StepResponse, 0, len(locs))
	var pending []<-chan api.StepOutcome
	settle := func(ch <-chan api.StepOutcome) error {
		select {
		case out := <-ch:
			if out.Err != nil {
				return out.Err
			}
			results = append(results, out.Resp)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, loc := range locs {
		for {
			ch, err := s.StepAsync(ctx, id, loc)
			if err == nil {
				pending = append(pending, ch)
				break
			}
			if api.CodeOf(err) != api.CodeResourceExhausted {
				return results, err
			}
			if len(pending) > 0 {
				if err := settle(pending[0]); err != nil {
					return results, err
				}
				pending = pending[1:]
				continue
			}
			// Queue full with nothing of ours in flight: another writer
			// owns the slots. Yield briefly rather than spin.
			select {
			case <-ctx.Done():
				return results, ctx.Err()
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	for len(pending) > 0 {
		if err := settle(pending[0]); err != nil {
			return results, err
		}
		pending = pending[1:]
	}
	return results, nil
}

// StepBatch implements api.Service: every item is enqueued in slice
// order (so items for the same session preserve their relative order
// and different sessions step in parallel), then the certified releases
// are collected. Per-item failures are reported inline; the batch
// itself never fails.
func (s *Server) StepBatch(ctx context.Context, steps []api.BatchStepItem) []api.StepResponse {
	dones := make([]chan stepOutcome, len(steps))
	results := make([]api.StepResponse, len(steps))
	for i, item := range steps {
		done, err := s.stepAsync(ctx, item.SessionID, item.Loc)
		if err != nil {
			results[i] = api.FailedStep(item.SessionID, err)
			continue
		}
		dones[i] = done
	}
	for i, done := range dones {
		if done == nil {
			continue
		}
		select {
		case out := <-done:
			if out.err != nil {
				results[i] = api.FailedStep(steps[i].SessionID, out.err)
			} else {
				results[i] = toStepResponse(steps[i].SessionID, out.res)
			}
		case <-ctx.Done():
			results[i] = api.FailedStep(steps[i].SessionID, ctx.Err())
		}
	}
	return results
}

// stepAsync enqueues one step and returns the completion channel.
func (s *Server) stepAsync(ctx context.Context, id string, loc int) (chan stepOutcome, error) {
	j := stepJob{loc: loc, done: make(chan stepOutcome, 1)}
	if err := s.enqueueStep(ctx, id, j); err != nil {
		return nil, err
	}
	return j.done, nil
}

// enqueueStep places a job on the session's FIFO queue and wakes the
// pool, rejecting drains, unknown ids and full queues. The job's
// observability context — ingress transport, trace ID, enqueue instant
// — is stamped here from ctx (see obs.WithTransport/WithTrace).
func (s *Server) enqueueStep(ctx context.Context, id string, j stepJob) error {
	if s.draining.Load() {
		return ErrDraining
	}
	sess, ok := s.mgr.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.transport = transportIndex(obs.TransportFrom(ctx))
	j.trace = obs.TraceFrom(ctx)
	j.enqueued = time.Now()
	wake, err := sess.enqueue(j, s.cfg.QueueDepth)
	if err != nil {
		if err == ErrQueueFull {
			s.metrics.queueRejections.Add(1)
		}
		return err
	}
	sess.touch(time.Now())
	if wake {
		s.pool.schedule(sess)
	}
	return nil
}

// DeleteSession implements api.Service: it removes and closes a
// session. A session that is journaled but no longer live (evicted
// during an over-capacity rehydrate) is tombstoned in the store so its
// id and disk space are reclaimed. ErrNotFound when neither exists.
func (s *Server) DeleteSession(id string) error {
	for {
		// Remove fires the onRemove hook, which takes createMu itself —
		// so it must be called lock-free here.
		if s.mgr.Remove(id) {
			return nil
		}
		if !s.durable {
			return ErrNotFound
		}
		// createMu rules out a create of the same id sitting between its
		// journal and its registration — without it the store-only
		// tombstone below could unlink the WAL of a session about to go
		// live. If the id went live meanwhile, loop back to the hook
		// path.
		s.createMu.Lock()
		if _, ok := s.mgr.Get(id); ok {
			s.createMu.Unlock()
			continue
		}
		err := s.cfg.Store.DeleteSession(id)
		s.createMu.Unlock()
		if err != nil {
			return ErrNotFound
		}
		return nil
	}
}

// GetSession implements api.Service: a session's public state.
func (s *Server) GetSession(id string) (api.SessionInfo, error) {
	sess, ok := s.mgr.Get(id)
	if !ok {
		return api.SessionInfo{}, ErrNotFound
	}
	return sessionInfo(sess), nil
}

// ListSessions implements api.Service: one page of live sessions in id
// order, keyset-paginated by the previous page's NextCursor. The page
// is a live iteration over a churning registry — exact for any fixed
// moment, approximate across pages, like any keyset cursor.
func (s *Server) ListSessions(req api.ListSessionsRequest) (api.SessionPage, error) {
	req, err := req.Normalize()
	if err != nil {
		return api.SessionPage{}, err
	}
	var matched []*Session
	s.mgr.forEach(func(sess *Session) {
		if sess.id > req.Cursor {
			matched = append(matched, sess)
		}
	})
	sort.Slice(matched, func(i, j int) bool { return matched[i].id < matched[j].id })
	page := api.SessionPage{}
	more := len(matched) > req.Limit
	if more {
		matched = matched[:req.Limit]
	}
	page.Sessions = make([]api.SessionInfo, len(matched))
	for i, sess := range matched {
		page.Sessions[i] = sessionInfo(sess)
	}
	if more {
		page.NextCursor = matched[len(matched)-1].id
	}
	return page, nil
}

// Health implements api.Service. Status is "ok", or "draining" once
// Shutdown has started (the HTTP codec maps that to 503 so load
// balancers drop the instance from rotation before the listener dies).
func (s *Server) Health() api.Health {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return api.Health{
		Status:        status,
		Sessions:      s.metrics.sessionsLive.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Version:       buildVersion(),
		GoVersion:     runtime.Version(),
		RowKernel:     mat.RowKernel(),
	}
}

// buildVersion reports the main module's version as stamped by the Go
// toolchain ("(devel)" for plain source builds).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

func sessionInfo(s *Session) api.SessionInfo {
	return api.SessionInfo{
		ID:        s.id,
		T:         int(s.steps.Load()),
		Epsilon:   s.epsilon,
		Alpha:     s.alpha,
		Mechanism: s.mechanism,
		Events:    s.events,
		Created:   s.created,
		LastUsed:  time.Unix(0, s.lastUsed.Load()),
		Queued:    s.queued(),
	}
}

// ObserveRPC records one served RPC request in the per-transport
// /statsz section; cmd/pristed (and the tests) wire it into the RPC
// server's observer hook.
func (s *Server) ObserveRPC(d time.Duration) {
	s.metrics.observeTransport(transportRPC, d)
}

// ObserveRPCStep records one successfully served RPC step request —
// its end-to-end latency plus the frame decode and encode stages; the
// RPC server's ObserveStep hook feeds it.
func (s *Server) ObserveRPCStep(total, decode, encode time.Duration) {
	s.metrics.observeServedStep(transportRPC, total, decode, encode)
}

// ObserveStreamOpen records an RPC step stream opening on a session;
// the RPC server's OnStreamOpen hook feeds it.
func (s *Server) ObserveStreamOpen(id string) {
	s.metrics.streamsOpened.Add(1)
	s.metrics.streamsActive.Add(1)
}

// ObserveStreamClose records an RPC step stream ending (gracefully or
// not); the RPC server's OnStreamClose hook feeds it.
func (s *Server) ObserveStreamClose(id string) {
	s.metrics.streamsActive.Add(-1)
}

// ObserveStreamWindow adjusts the in-flight streamed-step count for a
// session's shard: +1 when the stream pump submits a step, -1 when its
// release (or failure) is settled into an ack batch. The RPC server's
// ObserveStreamWindow hook feeds it; /statsz reports the occupancy.
func (s *Server) ObserveStreamWindow(id string, delta int) {
	s.streamWindows[shardIndex(id)].Add(int64(delta))
}

// ObserveStreamAcks records one flushed ack batch carrying n streamed
// step releases; the RPC server's ObserveStreamAcks hook feeds it.
func (s *Server) ObserveStreamAcks(n int) {
	s.metrics.streamSteps.Add(int64(n))
	s.metrics.streamAcks.Add(1)
}

// MetricsHandler returns the Prometheus-text /metricsz endpoint.
func (s *Server) MetricsHandler() http.Handler {
	return s.metrics.Handler()
}

// ExportSession implements api.Service: it captures a session's
// complete migratable state — identity, committed release-tag history,
// rolling fingerprint, RNG state — at a consistent point in its step
// stream. The snapshot request rides the session's single-writer FIFO
// queue, so it linearises with concurrent steps; ctx bounds the wait.
// The session keeps serving afterwards: migration is export, DELETE on
// the source, import on the target.
func (s *Server) ExportSession(ctx context.Context, id string) (api.SessionExport, error) {
	if s.draining.Load() {
		return api.SessionExport{}, ErrDraining
	}
	sess, ok := s.mgr.Get(id)
	if !ok {
		return api.SessionExport{}, ErrNotFound
	}
	j := stepJob{export: true, done: make(chan stepOutcome, 1)}
	wake, err := sess.enqueue(j, s.cfg.QueueDepth)
	if err != nil {
		if err == ErrQueueFull {
			s.metrics.queueRejections.Add(1)
		}
		return api.SessionExport{}, err
	}
	if wake {
		s.pool.schedule(sess)
	}
	var out stepOutcome
	select {
	case out = <-j.done:
	case <-ctx.Done():
		return api.SessionExport{}, ctx.Err()
	}
	if out.err != nil {
		return api.SessionExport{}, out.err
	}
	exp := api.SessionExport{
		Version:         api.V1,
		World:           s.worldTag,
		ID:              sess.id,
		Seed:            sess.seed,
		Epsilon:         sess.epsilon,
		Alpha:           sess.alpha,
		Mechanism:       sess.mechanism,
		Delta:           sess.delta,
		Events:          sess.events,
		CreatedUnixNano: sess.created.UnixNano(),
		T:               out.snap.T,
		Tags:            make([]api.ReleaseTag, len(out.snap.Tags)),
		Fingerprint:     out.snap.Fingerprint,
		RNG:             out.snap.RNG,
	}
	for i, tag := range out.snap.Tags {
		exp.Tags[i] = api.ReleaseTag{AlphaBits: tag.AlphaBits, Obs: tag.Obs}
	}
	s.metrics.sessionsExported.Add(1)
	return exp, nil
}

// ImportSession implements api.Service: it registers a migrated session
// from another instance's export. The world tag must match this
// server's (ErrWorldMismatch otherwise), the release-tag history is
// validated and re-committed through the shared compiled plan with the
// rolling fingerprint verified end-to-end (operators are rebuilt at the
// session's first cache miss here), and on durable deployments the full
// history is journaled atomically (snapshot + fresh WAL, a new journal
// generation) before the session goes live — a crash straight after the
// import recovers the complete migrated state.
func (s *Server) ImportSession(exp api.SessionExport) (api.SessionInfo, error) {
	if s.draining.Load() {
		return api.SessionInfo{}, ErrDraining
	}
	if err := exp.Validate(); err != nil {
		return api.SessionInfo{}, err
	}
	if exp.World != s.worldTag {
		return api.SessionInfo{}, fmt.Errorf("%w: export is for world %q, this server runs %q",
			ErrWorldMismatch, exp.World, s.worldTag)
	}
	events, err := eventspec.ParseAll(exp.Events, s.g.States(), 0)
	if err != nil {
		return api.SessionInfo{}, err
	}
	plan, err := s.buildPlan(exp.Epsilon, exp.Alpha, exp.Mechanism, exp.Delta, events)
	if err != nil {
		return api.SessionInfo{}, err
	}
	snap := core.Snapshot{
		T:           exp.T,
		Tags:        make([]core.ReleaseTag, len(exp.Tags)),
		Fingerprint: exp.Fingerprint,
		RNG:         exp.RNG,
	}
	for i, tag := range exp.Tags {
		snap.Tags[i] = core.ReleaseTag{AlphaBits: tag.AlphaBits, Obs: tag.Obs}
	}
	fw, err := plan.Restore(snap, core.NewSessionRNG(exp.Seed))
	if err != nil {
		if errors.Is(err, core.ErrFingerprintMismatch) {
			return api.SessionInfo{}, fmt.Errorf("%w: %v", ErrWorldMismatch, err)
		}
		return api.SessionInfo{}, err
	}
	now := time.Now()
	sess := &Session{
		id:        exp.ID,
		created:   time.Unix(0, exp.CreatedUnixNano),
		fw:        fw,
		epsilon:   exp.Epsilon,
		alpha:     exp.Alpha,
		mechanism: exp.Mechanism,
		delta:     exp.Delta,
		events:    exp.Events,
		seed:      exp.Seed,
	}
	sess.steps.Store(int64(fw.T()))
	sess.touch(now)
	var imported *store.SessionState
	if s.durable {
		state := store.SessionState{
			Meta:        sess.meta(s.worldTag),
			Tags:        make([]store.Tag, len(exp.Tags)),
			Fingerprint: exp.Fingerprint,
			RNG:         exp.RNG,
		}
		for i, tag := range exp.Tags {
			state.Tags[i] = store.Tag{AlphaBits: tag.AlphaBits, Obs: tag.Obs}
		}
		imported = &state
	}
	if err := s.register(sess, imported); err != nil {
		return api.SessionInfo{}, err
	}
	s.mgr.enforceCap()
	s.metrics.sessionsImported.Add(1)
	return sessionInfo(sess), nil
}
