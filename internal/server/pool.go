package server

import (
	"log/slog"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/obs"
	"priste/internal/par"
)

// pool is the step execution layer: a fixed set of workers pulling
// runnable sessions off a shared run queue. A session enters the run
// queue at most once (guarded by its scheduled token) and stays
// single-writer with per-session FIFO ordering while steps from many
// users run concurrently.
//
// Scheduling is batch-aware along two axes. Plan affinity: after
// finishing a session, a worker prefers up to `affinity` consecutive
// queued sessions sharing the same compiled plan, so back-to-back
// commits hit a warm plan and certified-release cache instead of
// ping-ponging between worlds; the run queue keeps a per-plan index
// next to the arrival-order list to make that dequeue O(1). Fairness:
// one visit commits at most `drainBatch` steps before the session is
// parked back at the tail of the arrival order, so a firehose stream
// (the PR 7 streaming ingest) cannot starve interactive sessions.
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	fifo    []*Session                // arrival order
	byPlan  map[*core.Plan][]*Session // per-plan index of the same entries
	queued  map[*Session]struct{}     // membership truth; lists are skimmed lazily
	stopped bool

	affinity   int // max consecutive same-plan picks; <= 0 disables
	drainBatch int // max steps per session visit; <= 0 unbounded

	wg       sync.WaitGroup
	stopOnce sync.Once
	metrics  *Metrics

	// logger and slowStep drive the slow-step warning: a step whose
	// pool-side time (queue wait + commit + WAL append) reaches slowStep
	// is logged with its trace ID and stage breakdown. slowStep <= 0
	// disables the check.
	logger   *slog.Logger
	slowStep time.Duration

	// onStep, when set, runs after every successfully committed step,
	// before the result is acknowledged to the caller — the write-ahead
	// point where the durability layer journals the release. It runs on
	// the worker holding the session's scheduled token, so it may touch
	// the session's framework.
	onStep func(s *Session, res core.StepResult)
	// onSnap, when set, runs after a step's acknowledgement when onStep
	// flagged the session (Session.needSnap) — snapshot compaction is
	// pure optimisation over an already-journaled WAL, so it must not
	// sit on the ack path. Same single-writer context as onStep.
	onSnap func(s *Session)
	// onRelease, when set, runs after a committed step has been
	// acknowledged — the release-stream publish point. Same
	// single-writer context as onStep, so per-session publish order is
	// commit order.
	onRelease func(s *Session, res core.StepResult)
}

func newPool(workers, affinity, drainBatch int, metrics *Metrics, logger *slog.Logger, slowStep time.Duration) *pool {
	p := &pool{
		byPlan:     make(map[*core.Plan][]*Session),
		queued:     make(map[*Session]struct{}),
		affinity:   affinity,
		drainBatch: drainBatch,
		metrics:    metrics,
		logger:     logger,
		slowStep:   slowStep,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// schedule hands a session holding the scheduled token to a worker.
func (p *pool) schedule(s *Session) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		// Shutdown: the server closes every session before stopping the
		// pool, which fails all pending jobs.
		s.close()
		return
	}
	if _, ok := p.queued[s]; ok {
		p.mu.Unlock()
		return
	}
	p.queued[s] = struct{}{}
	p.fifo = append(p.fifo, s)
	if p.affinity > 0 {
		// Reading the plan pointer is safe off the worker: fw is set
		// once at construction and Plan() returns immutable state.
		plan := s.fw.Plan()
		list := p.byPlan[plan]
		// Skim entries already consumed through the arrival-order list
		// so an active plan's index stays tight.
		for len(list) > 0 {
			if _, live := p.queued[list[0]]; live {
				break
			}
			list = list[1:]
		}
		p.byPlan[plan] = append(list, s)
	}
	p.cond.Signal()
	p.mu.Unlock()
}

// next blocks until a runnable session is available and dequeues it:
// by plan affinity while the worker's current run has picks left,
// arrival order otherwise. ok false means the pool stopped.
func (p *pool) next(prevPlan *core.Plan, run int) (s *Session, viaAffinity, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped {
			return nil, false, false
		}
		if prevPlan != nil && p.affinity > 0 && run < p.affinity {
			if s := p.popPlanLocked(prevPlan); s != nil {
				p.metrics.schedAffinity.Add(1)
				return s, true, true
			}
		}
		if s := p.popFIFOLocked(); s != nil {
			p.metrics.schedFIFO.Add(1)
			return s, false, true
		}
		p.cond.Wait()
	}
}

// popFIFOLocked dequeues the oldest still-queued session, skipping
// entries already consumed through the per-plan index.
func (p *pool) popFIFOLocked() *Session {
	for len(p.fifo) > 0 {
		s := p.fifo[0]
		p.fifo = p.fifo[1:]
		if _, live := p.queued[s]; live {
			delete(p.queued, s)
			return s
		}
	}
	p.fifo = nil
	return nil
}

// popPlanLocked dequeues the oldest still-queued session of plan,
// skipping entries already consumed through the arrival-order list.
func (p *pool) popPlanLocked(plan *core.Plan) *Session {
	list := p.byPlan[plan]
	for len(list) > 0 {
		s := list[0]
		list = list[1:]
		if _, live := p.queued[s]; live {
			delete(p.queued, s)
			if len(list) == 0 {
				delete(p.byPlan, plan)
			} else {
				p.byPlan[plan] = list
			}
			return s
		}
	}
	delete(p.byPlan, plan)
	return nil
}

func (p *pool) worker() {
	defer p.wg.Done()
	var prevPlan *core.Plan
	run := 0
	for {
		s, viaAffinity, ok := p.next(prevPlan, run)
		if !ok {
			return
		}
		if viaAffinity {
			run++
		} else {
			prevPlan = s.fw.Plan()
			run = 1
		}
		if p.drain(s) {
			p.metrics.schedRequeues.Add(1)
			p.schedule(s)
		}
	}
}

// drain runs the session's pending jobs in FIFO order until the queue
// empties — releasing the scheduled token — or the drain-batch cap is
// hit, in which case the session keeps its token and drain returns
// true so the worker re-queues it behind its peers.
//
// A visit registers itself with the kernel worker pool for its duration:
// inter-session parallelism (busy drain workers) and intra-op tile
// parallelism share one CPU budget, so while enough visits run
// concurrently to cover the pool width, each session's kernels stay
// serial instead of oversubscribing the cores; a lone active session
// fans its products out across the idle budget.
func (p *pool) drain(s *Session) (requeue bool) {
	par.Default().AddExternal(1)
	defer par.Default().AddExternal(-1)
	steps := 0
	for {
		if p.drainBatch > 0 && steps >= p.drainBatch {
			return s.park()
		}
		j, ok := s.pop()
		if !ok {
			return false
		}
		steps++
		if j.export {
			// Export: a consistent point-in-time snapshot, positioned in
			// the step stream exactly where the job sat in the FIFO. Not a
			// step — no metrics, no journaling, no LRU touch.
			snap, err := s.fw.Snapshot()
			j.done <- stepOutcome{snap: snap, err: err}
			continue
		}
		start := time.Now()
		wait := start.Sub(j.enqueued)
		res, err := s.fw.Step(j.loc)
		commit := time.Since(start)
		wal := time.Duration(-1) // -1: no durability layer ran
		if err == nil {
			s.steps.Add(1)
			if p.onStep != nil {
				ws := time.Now()
				p.onStep(s, res)
				wal = time.Since(ws)
			}
		}
		s.touch(time.Now())
		p.metrics.observeStep(j.transport, wait, commit, wal, res, err)
		switch {
		case err != nil:
			j.fail(err)
		case j.apiDone != nil:
			j.apiDone <- api.StepOutcome{Resp: toStepResponse("", res)}
		default:
			j.done <- stepOutcome{res: res}
		}
		if err == nil && p.onRelease != nil {
			p.onRelease(s, res)
		}
		if p.slowStep > 0 && err == nil {
			total := wait + commit
			if wal > 0 {
				total += wal
			}
			if total >= p.slowStep {
				p.logger.Warn("server: slow step",
					"trace", obs.FormatTrace(j.trace),
					"session", s.id,
					"transport", transportNames[j.transport],
					"t", res.T,
					"queue_wait_us", float64(wait)/1e3,
					"commit_us", float64(commit)/1e3,
					"wal_append_us", float64(max(wal, 0))/1e3,
					"cache_hits", res.CertCacheHits,
					"cache_misses", res.CertCacheMisses,
					"rebuilt", res.Rebuilt,
					"rebuild_us", float64(res.RebuildTime)/1e3,
					"uniform", res.Uniform)
			}
		}
		if s.needSnap {
			s.needSnap = false
			if p.onSnap != nil {
				p.onSnap(s)
			}
		}
	}
}

// stop shuts the workers down and waits for them; once it returns no
// worker touches any session's framework. Jobs still queued are failed
// by the session close that must follow (Close/CloseAll), and late
// schedule() calls fail their jobs via the stopped path. Idempotent.
func (p *pool) stop() {
	p.stopOnce.Do(func() {
		p.mu.Lock()
		p.stopped = true
		p.cond.Broadcast()
		p.mu.Unlock()
		p.wg.Wait()
	})
}
