package server

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/store"
)

// Sentinel errors surfaced by the session layer. They are typed
// api.Errors, so every transport renders them canonically (HTTP status,
// RPC error byte) and a client-side reconstruction matches them under
// errors.Is.
var (
	// ErrQueueFull reports backpressure: the session's pending-step queue
	// is at capacity (HTTP 429).
	ErrQueueFull = api.Errf(api.CodeResourceExhausted, "server: session step queue full")
	// ErrSessionClosed reports a step enqueued on (or pending in) a
	// session that was deleted or evicted (HTTP 410).
	ErrSessionClosed = api.Errf(api.CodeSessionClosed, "server: session closed")
	// ErrSessionExists reports a create with an already-live explicit id
	// (HTTP 409).
	ErrSessionExists = api.Errf(api.CodeAlreadyExists, "server: session id already exists")
	// ErrNotFound reports an unknown session id (HTTP 404).
	ErrNotFound = api.Errf(api.CodeNotFound, "server: session not found")
	// ErrDraining reports a request rejected because the server is in
	// graceful shutdown: no new sessions or steps are accepted while
	// pending work drains and state is flushed (HTTP 503).
	ErrDraining = api.Errf(api.CodeUnavailable, "server: draining for shutdown")
	// ErrWorldMismatch reports an import whose history was certified
	// against a different world model (HTTP 412).
	ErrWorldMismatch = api.Errf(api.CodeFailedPrecondition, "server: session was certified against a different world model")
)

// stepJob is one pending queue entry — a step (done set), or (export
// set) a request for a consistent point-in-time snapshot that rides the
// same single-writer FIFO so it never races a step on the framework.
// Both channels are buffered (cap 1) so the worker never blocks on a
// slow or departed client.
type stepJob struct {
	loc    int
	done   chan api.StepOutcome
	export chan exportOutcome

	// Observability context, stamped at enqueue time: the ingress
	// transport (metrics attribution for the pool-side stages), the
	// request's trace ID (slow-step logs), and the enqueue instant
	// (the queue_wait stage).
	transport int
	trace     uint64
	enqueued  time.Time
}

// fail delivers err as the job's outcome.
func (j stepJob) fail(err error) {
	if j.export != nil {
		j.export <- exportOutcome{err: err}
		return
	}
	j.done <- api.StepOutcome{Err: err}
}

type exportOutcome struct {
	snap core.Snapshot
	err  error
}

// Session is one user's live privacy session: a core.Framework with its
// own RNG, mechanism and event set, plus a bounded FIFO queue of pending
// steps. The framework is single-writer: only the worker currently
// holding the session's scheduled token touches fw, so per-session step
// order is exactly enqueue order while different sessions step in
// parallel.
type Session struct {
	id string
	// meta is the session's immutable identity: what GET
	// /v1/sessions/{id} reports, the journal records and an export
	// carries.
	meta store.SessionMeta

	// lastUsed is unix nanoseconds of the latest enqueue or completed
	// step; the TTL sweeper and LRU evictor read it without locking.
	lastUsed atomic.Int64
	// steps counts completed Step calls; equals the framework's next
	// timestamp and is safe to read outside the worker.
	steps atomic.Int64

	mu        sync.Mutex
	queue     []stepJob
	scheduled bool
	closed    bool

	// Single-writer state: guarded by the scheduled token, not mu.
	fw *core.Framework

	// storeGen is the durability journal's generation token for this
	// incarnation of the id (see store.Store.CreateSession). Set once
	// before the session becomes steppable.
	storeGen uint64
	// needSnap asks the worker to compact the WAL into a snapshot after
	// acknowledging the current step. Owned by the scheduled-token
	// holder; no locking.
	needSnap bool
}

// newSessionID returns a 128-bit random hex id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// randomSeed draws a non-negative session RNG seed from crypto/rand.
func randomSeed() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (s *Session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// enqueue appends one step to the session's FIFO queue and hands the
// session to the pool if it is not already scheduled. maxQueue bounds the
// pending queue (backpressure).
func (s *Session) enqueue(j stepJob, maxQueue int) (wake bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrSessionClosed
	}
	if len(s.queue) >= maxQueue {
		return false, ErrQueueFull
	}
	s.queue = append(s.queue, j)
	if !s.scheduled {
		s.scheduled = true
		return true, nil
	}
	return false, nil
}

// pop removes the head of the queue, or clears the scheduled token when
// the queue is drained. Called only by the worker holding the token.
func (s *Session) pop() (stepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 || s.closed {
		s.unschedule()
		return stepJob{}, false
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	return j, true
}

// park decides the session's fate when a worker hits the drain-batch
// fairness cap: with work still queued the session keeps its scheduled
// token and reports true (the caller re-queues it); otherwise the token
// is released exactly as pop's empty case would have. Called only by
// the worker holding the token.
func (s *Session) park() (requeue bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 || s.closed {
		s.unschedule()
		return false
	}
	return true
}

// unschedule clears the scheduled token; mu is held. The holder of a
// closed session's token is its framework's last writer, so the view
// goes back to the plan's pools here.
func (s *Session) unschedule() {
	s.scheduled = false
	if s.closed {
		s.releaseView()
	}
}

// close marks the session dead and fails every pending job. Queue
// ownership is serialised by mu, so each job receives exactly one
// outcome: either here or from the worker that popped it earlier.
//
// The framework's view goes back to the plan's pools exactly once, from
// its last writer: here when no worker holds the scheduled token —
// closed stops enqueue from handing one out again — otherwise from the
// holder's pop or park once its step is done.
func (s *Session) close() {
	s.mu.Lock()
	if !s.closed && !s.scheduled {
		s.releaseView()
	}
	s.closed = true
	pending := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, j := range pending {
		j.fail(ErrSessionClosed)
	}
}

// releaseView hands the framework's view back (see close). A session
// built without a framework has none.
func (s *Session) releaseView() {
	if s.fw != nil {
		s.fw.Release()
	}
}

// queued returns the number of pending steps.
func (s *Session) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// idle reports whether the session has no pending steps and no worker
// holding its scheduled token — i.e. nothing is touching fw, so the
// shutdown path may snapshot it.
func (s *Session) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && !s.scheduled
}
