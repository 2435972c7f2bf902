package server

import (
	"log/slog"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/obs"
)

// pool is the step execution layer: a fixed set of workers pulling
// runnable sessions off one shared run queue, while steps from many
// users run concurrently. Two rules govern it:
//
//   - Arrival order. Workers take sessions in the order they became
//     runnable. A session is on the queue at most once: only the holder
//     of its scheduled token (Session.enqueue hands it out when unset,
//     pop/park clear it) may schedule it, so the session stays
//     single-writer and commits its steps in enqueue order.
//   - Fairness. One visit commits at most `drainBatch` steps before a
//     session with work left is parked back at the tail, so a firehose
//     stream cannot starve interactive sessions.
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	runq    []*Session // runnable sessions, arrival order
	stopped bool

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

func newPool(workers, drainBatch int, metrics *Metrics, logger *slog.Logger, slowStep time.Duration) *pool {
	p := &pool{
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
	p.runq = append(p.runq, s)
	p.cond.Signal()
	p.mu.Unlock()
}

// next blocks until a runnable session is available and dequeues the
// oldest. ok false means the pool stopped.
func (p *pool) next() (s *Session, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.runq) == 0 && !p.stopped {
		p.cond.Wait()
	}
	if p.stopped {
		return nil, false
	}
	s = p.runq[0]
	p.runq[0] = nil // drop the backing array's reference
	p.runq = p.runq[1:]
	return s, true
}

func (p *pool) worker() {
	defer p.wg.Done()
	for {
		s, ok := p.next()
		if !ok {
			return
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
func (p *pool) drain(s *Session) (requeue bool) {
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
		if j.export != nil {
			// Export: a consistent point-in-time snapshot, positioned in
			// the step stream exactly where the job sat in the FIFO. Not a
			// step — no metrics, no journaling, no LRU touch.
			snap, err := s.fw.Snapshot()
			j.export <- exportOutcome{snap: snap, err: err}
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
		if err != nil {
			j.fail(err)
		} else {
			j.done <- api.StepOutcome{Resp: toStepResponse(res)}
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
