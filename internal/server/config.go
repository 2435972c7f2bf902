package server

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"time"

	"priste/internal/certcache"
	"priste/internal/store"
)

// Default service limits.
const (
	DefaultMaxSessions = 4096
	DefaultSessionTTL  = 15 * time.Minute
	DefaultQueueDepth  = 64
	// DefaultCertCacheSize bounds the shared certified-release cache
	// (entries across all shards).
	DefaultCertCacheSize = 1 << 16
	// DefaultSnapshotEvery is the snapshot cadence: a session's WAL is
	// compacted into a snapshot every this many committed steps.
	DefaultSnapshotEvery = 256
	// DefaultSlowStep is the served-step duration at which the worker
	// pool logs a slow-step warning with the step's stage breakdown.
	DefaultSlowStep = 500 * time.Millisecond
	// DefaultDrainBatch caps the steps one worker visit commits for a
	// single session before the session is parked back at the tail of
	// the run queue — the fairness bound that keeps one firehose stream
	// from starving other sessions.
	DefaultDrainBatch = 64
	// DefaultStreamBuffer is the per-subscriber release buffer of the
	// SSE stream; a subscriber that falls this many releases behind is
	// dropped rather than allowed to backpressure the commit path.
	DefaultStreamBuffer = 256
)

// Config describes one pristed deployment: the shared world model every
// session lives in (map, mobility), the per-session privacy defaults
// (mechanism, budget, protected events), and the service limits (session
// cap, idle TTL, worker pool, queue depth). Sessions may override the
// privacy defaults at creation time; the world model is fixed for the
// lifetime of the server.
type Config struct {
	// GridW, GridH are the map dimensions; Cell is the cell edge length
	// in user units (e.g. km).
	GridW, GridH int
	Cell         float64
	// Sigma is the Gaussian scale of the synthetic mobility model shared
	// by all sessions (§V-A).
	Sigma float64

	// Epsilon and Alpha are the default ε-spatiotemporal event privacy
	// level and initial LPPM budget for new sessions.
	Epsilon float64
	Alpha   float64
	// Mechanism is the default LPPM: MechanismLaplace or MechanismDelta.
	Mechanism string
	// Delta is the δ-location-set parameter used when Mechanism is
	// MechanismDelta.
	Delta float64
	// Events are the default protected-event specs ("LO-HI@START-END",
	// see internal/eventspec) for sessions that do not supply their own.
	Events []string
	// QPTimeout is the conservative-release threshold passed to the core
	// release loop; zero means no limit (fully deterministic stepping).
	QPTimeout time.Duration

	// MaxSessions caps live sessions; creating one more evicts the least
	// recently used session. Default DefaultMaxSessions.
	MaxSessions int
	// SessionTTL evicts sessions idle for longer than this. Zero uses
	// DefaultSessionTTL; negative disables idle eviction.
	SessionTTL time.Duration
	// Workers sizes the step worker pool. Zero uses GOMAXPROCS; negative
	// starts no workers (test hook: enqueued steps are never drained).
	Workers int
	// QueueDepth bounds each session's pending-step queue; an enqueue on
	// a full queue fails with ErrQueueFull (HTTP 429). Default
	// DefaultQueueDepth.
	QueueDepth int
	// CertCacheSize bounds the certified-release cache shared by every
	// session whose mechanism is history-independent (entries). Zero uses
	// DefaultCertCacheSize; negative disables the cache (every release
	// condition is re-solved). A full cache costs 72 bytes an entry.
	CertCacheSize int
	// DrainBatch caps the steps one worker visit commits for a single
	// session before parking it back at the run-queue tail. Zero uses
	// DefaultDrainBatch; negative removes the cap (a visit drains the
	// session's queue to empty, the pre-PR7 behaviour).
	DrainBatch int
	// StreamBuffer is the per-subscriber buffered-release depth of the
	// SSE release stream; a subscriber that lags this far behind the
	// commit stream is disconnected. Zero uses DefaultStreamBuffer.
	StreamBuffer int

	// Store is the session durability backend: committed releases are
	// journaled to a per-session WAL write-ahead of the step response,
	// periodically compacted into snapshots, and surviving sessions are
	// rehydrated on startup. Nil runs in-memory only (store.Null).
	Store store.Store
	// SnapshotEvery compacts a session's WAL into a snapshot every this
	// many committed steps. Zero uses DefaultSnapshotEvery; negative
	// disables periodic snapshots (the WAL still makes sessions
	// recoverable — replay just reads a longer log).
	SnapshotEvery int

	// Logger receives the server's structured logs: replay failures,
	// WAL append/snapshot errors, slow steps. Nil discards them (the
	// library default; cmd/pristed always installs one).
	Logger *slog.Logger
	// SlowStep is the pool-side step duration (queue wait + commit +
	// WAL append) at or above which a warning with the step's trace ID
	// and stage breakdown is logged. Zero uses DefaultSlowStep;
	// negative disables slow-step logging.
	SlowStep time.Duration
}

// Mechanism names accepted by Config and session-creation requests.
const (
	MechanismLaplace = "laplace"
	MechanismDelta   = "delta"
)

// DefaultConfig returns a small default deployment: 10×10 km map,
// unit-scale Gaussian mobility, geo-indistinguishability at ε=0.5, α=1,
// protecting PRESENCE over states 0..9 during timestamps 3..7.
func DefaultConfig() Config {
	return Config{
		GridW:     10,
		GridH:     10,
		Cell:      1.0,
		Sigma:     1.0,
		Epsilon:   0.5,
		Alpha:     1.0,
		Mechanism: MechanismLaplace,
		Delta:     0.05,
		Events:    []string{"0-9@3-7"},
		QPTimeout: time.Second,
	}
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CertCacheSize == 0 {
		c.CertCacheSize = DefaultCertCacheSize
	}
	if c.Mechanism == "" {
		c.Mechanism = MechanismLaplace
	}
	if c.Store == nil {
		c.Store = store.Null{}
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SlowStep == 0 {
		c.SlowStep = DefaultSlowStep
	}
	if c.DrainBatch == 0 {
		c.DrainBatch = DefaultDrainBatch
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = DefaultStreamBuffer
	}
	return c
}

func (c Config) validate() error {
	if c.GridW <= 0 || c.GridH <= 0 {
		return fmt.Errorf("server: grid %dx%d must be positive", c.GridW, c.GridH)
	}
	if c.Cell <= 0 || math.IsNaN(c.Cell) {
		return fmt.Errorf("server: cell size must be positive, got %g", c.Cell)
	}
	if c.Sigma <= 0 || math.IsNaN(c.Sigma) {
		return fmt.Errorf("server: sigma must be positive, got %g", c.Sigma)
	}
	if c.Epsilon <= 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("server: epsilon must be positive and finite, got %g", c.Epsilon)
	}
	if c.Alpha <= 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) {
		return fmt.Errorf("server: alpha must be positive and finite, got %g", c.Alpha)
	}
	switch c.Mechanism {
	case MechanismLaplace:
	case MechanismDelta:
		if c.Delta < 0 || c.Delta >= 1 || math.IsNaN(c.Delta) {
			return fmt.Errorf("server: delta must lie in [0,1), got %g", c.Delta)
		}
	default:
		return fmt.Errorf("server: unknown mechanism %q (want %q or %q)", c.Mechanism, MechanismLaplace, MechanismDelta)
	}
	if c.CertCacheSize > certcache.MaxCapacity {
		return fmt.Errorf("server: cert cache size %d exceeds %d entries", c.CertCacheSize, certcache.MaxCapacity)
	}
	if len(c.Events) == 0 {
		return fmt.Errorf("server: at least one default event spec is required")
	}
	return nil
}
