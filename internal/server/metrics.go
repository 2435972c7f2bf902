package server

import (
	"net/http"
	"runtime"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/obs"
)

// Transports served by one Server; indexes into Metrics.transports.
// Local is the implicit transport of steps driven through the Go API
// directly (embedding callers, tests): pool-side stages always have a
// transport to land on even when no ingress codec tagged the context.
const (
	transportHTTP = iota
	transportRPC
	transportLocal
	numTransports
)

// transportNames are the obs context tags and the metric label values.
var transportNames = [numTransports]string{"http", "rpc", "local"}

// transportIndex maps an obs transport tag onto its metrics slot;
// unknown or absent tags land on local.
func transportIndex(name string) int {
	switch name {
	case transportNames[transportHTTP]:
		return transportHTTP
	case transportNames[transportRPC]:
		return transportRPC
	default:
		return transportLocal
	}
}

// Step pipeline stages; see api.StageStats for the semantics of each.
// The per-stage means of a served step sum to approximately its
// end-to-end served latency — the decomposition that names where the
// serving overhead over the raw engine rate goes.
const (
	stageDecode = iota
	stageQueueWait
	stageCommitHit
	stageCommitMiss
	stageRebuild
	stageWalAppend
	stageEncode
	numStages
)

var stageNames = [numStages]string{"decode", "queue_wait", "commit_hit", "commit_miss", "rebuild", "wal_append", "encode"}

// transportMetrics is one transport's request and step instrumentation.
// Request/step counts are the histograms' counts — no separate counters
// on the hot path.
type transportMetrics struct {
	// reqLat covers every request served on the transport (steps,
	// control calls, health probes).
	reqLat *obs.Histogram
	// stepLat is the end-to-end served latency of successful step
	// requests (HTTP: handler entry to response written; RPC: frame
	// decoded to response frame written).
	stepLat *obs.Histogram
	stages  [numStages]*obs.Histogram
}

// Metrics is the service instrumentation: atomic counters/gauges plus
// lock-free log-spaced-bucket latency histograms, all registered in an
// obs.Registry so one structure backs both the /statsz JSON document
// and the Prometheus-text /metricsz exposition.
type Metrics struct {
	reg *obs.Registry

	sessionsLive     *obs.Gauge
	sessionsCreated  *obs.Counter
	sessionsEvicted  *obs.Counter
	sessionsImported *obs.Counter
	sessionsExported *obs.Counter

	stepsServed     *obs.Counter
	stepErrors      *obs.Counter
	uniformReleases *obs.Counter
	queueRejections *obs.Counter
	rebuiltCommits  *obs.Counter

	storeAppendErrors    *obs.Counter
	storeSnapshotErrors  *obs.Counter
	storeTombstoneErrors *obs.Counter
	storeReplayed        *obs.Counter
	storeReplayFailures  *obs.Counter
	storeReplayNanos     *obs.Counter
	storeWarmLoadFailed  *obs.Counter

	// walFsync times WAL append fsyncs. It is not per-transport: one
	// sync persists appends from every transport, so attribution would
	// be arbitrary.
	walFsync   *obs.Histogram
	transports [numTransports]transportMetrics

	// Streaming pipeline (RPC step streams + SSE release streams).
	streamsOpened  *obs.Counter
	streamsActive  *obs.Gauge
	streamSteps    *obs.Counter
	streamAcks     *obs.Counter
	sseSubscribers *obs.Gauge
	sseDelivered   *obs.Counter
	sseDropped     *obs.Counter

	// Batch-aware scheduler.
	schedAffinity *obs.Counter
	schedFIFO     *obs.Counter
	schedRequeues *obs.Counter
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{reg: reg}
	m.sessionsLive = reg.Gauge("priste_sessions_live", "Live sessions.")
	m.sessionsCreated = reg.Counter("priste_sessions_created_total", "Sessions created.")
	m.sessionsEvicted = reg.Counter("priste_sessions_evicted_total", "Sessions evicted (LRU or idle TTL).")
	m.sessionsImported = reg.Counter("priste_sessions_imported_total", "Sessions imported from another instance.")
	m.sessionsExported = reg.Counter("priste_sessions_exported_total", "Sessions exported for migration.")

	m.stepsServed = reg.Counter("priste_steps_served_total", "Steps committed by the engine.")
	m.stepErrors = reg.Counter("priste_step_errors_total", "Steps failed in the engine.")
	m.uniformReleases = reg.Counter("priste_uniform_releases_total", "Steps that fell back to the uniform (zero-information) release.")
	m.queueRejections = reg.Counter("priste_queue_rejections_total", "Steps rejected by per-session queue backpressure.")
	m.rebuiltCommits = reg.Counter("priste_engine_rebuilt_commits_total", "Committed release tags folded into quantifier operators (deferred until a check misses the cache; steps served minus this is the commits never computed).")

	m.storeAppendErrors = reg.Counter("priste_store_append_errors_total", "Failed write-ahead journal appends.")
	m.storeSnapshotErrors = reg.Counter("priste_store_snapshot_errors_total", "Failed snapshot compactions.")
	m.storeTombstoneErrors = reg.Counter("priste_store_tombstone_errors_total", "Failed delete/evict tombstones.")
	m.storeReplayed = reg.Counter("priste_store_sessions_replayed_total", "Sessions whose journal was validated and re-registered at startup (operators are rebuilt at the session's first cache miss).")
	m.storeReplayFailures = reg.Counter("priste_store_replay_failures_total", "Persisted sessions that failed replay and were skipped.")
	m.storeReplayNanos = &obs.Counter{} // internal: total replay time, reported via /statsz only
	m.storeWarmLoadFailed = reg.Counter("priste_store_warm_load_failures_total", "Persisted cert-cache files that could not be read at startup.")

	m.streamsOpened = reg.Counter("priste_stream_opened_total", "RPC step streams opened.")
	m.streamsActive = reg.Gauge("priste_stream_active", "RPC step streams currently open.")
	m.streamSteps = reg.Counter("priste_stream_steps_total", "Steps submitted through step streams.")
	m.streamAcks = reg.Counter("priste_stream_ack_batches_total", "Ack batches flushed on step streams.")
	m.sseSubscribers = reg.Gauge("priste_sse_subscribers", "Live SSE release-stream subscribers.")
	m.sseDelivered = reg.Counter("priste_sse_delivered_total", "Releases delivered to SSE subscribers.")
	m.sseDropped = reg.Counter("priste_sse_dropped_total", "SSE subscribers dropped for lagging behind the commit stream.")

	m.schedAffinity = reg.Counter("priste_sched_affinity_picks_total", "Run-queue dequeues that kept a worker on its previous plan.")
	m.schedFIFO = reg.Counter("priste_sched_fifo_picks_total", "Run-queue dequeues in arrival order.")
	m.schedRequeues = reg.Counter("priste_sched_requeues_total", "Sessions parked back on the run queue by the drain-batch fairness cap.")

	m.walFsync = reg.Histogram("priste_wal_fsync_seconds", "WAL append fsync latency (all transports batched).")
	for i := range m.transports {
		label := obs.Label{Key: "transport", Value: transportNames[i]}
		t := &m.transports[i]
		t.reqLat = reg.Histogram("priste_request_seconds", "Request latency, any request served on the transport.", label)
		t.stepLat = reg.Histogram("priste_step_served_seconds", "End-to-end served latency of successful step requests.", label)
		for st := range t.stages {
			t.stages[st] = reg.Histogram("priste_step_stage_seconds", "Per-stage step latency; stages sum to ~ priste_step_served_seconds.",
				label, obs.Label{Key: "stage", Value: stageNames[st]})
		}
	}
	obs.RegisterRuntime(reg)
	return m
}

// Registry returns the metric registry backing /metricsz; the server
// registers its external sections (plans, cert cache, store) on it.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Handler returns the Prometheus-text /metricsz endpoint.
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }

// observeStep records the pool-side outcome of one step: queue wait,
// engine commit (split by certified-release cache hit/miss, with the
// operator rebuild a miss triggered carved out as its own stage) and WAL
// append time (wal < 0 when the deployment is not durable).
func (m *Metrics) observeStep(transport int, wait, commit, wal time.Duration, res core.StepResult, err error) {
	if err != nil {
		m.stepErrors.Add(1)
		return
	}
	m.stepsServed.Add(1)
	if res.Uniform {
		m.uniformReleases.Add(1)
	}
	t := &m.transports[transport]
	t.stages[stageQueueWait].Observe(wait)
	if res.CertCacheMisses == 0 && res.CertCacheHits > 0 {
		t.stages[stageCommitHit].Observe(commit)
	} else {
		t.stages[stageCommitMiss].Observe(commit - res.RebuildTime)
	}
	if res.RebuildTime > 0 {
		m.rebuiltCommits.Add(int64(res.Rebuilt))
		t.stages[stageRebuild].Observe(res.RebuildTime)
	}
	if wal >= 0 {
		t.stages[stageWalAppend].Observe(wal)
	}
}

// observeServedStep records one successfully served step request at the
// transport codec: its end-to-end latency plus the decode and encode
// stages. The pool-side stages of the same step arrive via observeStep.
func (m *Metrics) observeServedStep(transport int, total, decode, encode time.Duration) {
	t := &m.transports[transport]
	t.stepLat.Observe(total)
	t.stages[stageDecode].Observe(decode)
	t.stages[stageEncode].Observe(encode)
}

// observeTransport records one request served on a transport (any
// request: steps, control calls, health probes).
func (m *Metrics) observeTransport(transport int, d time.Duration) {
	m.transports[transport].reqLat.Observe(d)
}

func (m *Metrics) transportStats(transport int) api.TransportStats {
	t := &m.transports[transport]
	ts := api.TransportStats{
		Requests:  t.reqLat.Count(),
		P50Micros: float64(t.reqLat.Quantile(0.50)) / 1e3,
		P99Micros: float64(t.reqLat.Quantile(0.99)) / 1e3,
		Steps:     t.stepLat.Count(),
	}
	if ts.Steps > 0 {
		ts.StepMeanMicros = t.stepLat.Mean() / 1e3
		ts.StepP99Micros = float64(t.stepLat.Quantile(0.99)) / 1e3
	}
	stages := make(map[string]api.StageStats, numStages)
	for i, h := range t.stages {
		n := h.Count()
		if n == 0 {
			continue
		}
		stages[stageNames[i]] = api.StageStats{
			Count:      n,
			MeanMicros: h.Mean() / 1e3,
			P99Micros:  float64(h.Quantile(0.99)) / 1e3,
		}
	}
	if len(stages) > 0 {
		ts.Stages = stages
	}
	return ts
}

// commitLatency merges the per-transport commit histograms (hit and
// miss) into one engine-commit latency view. Merging is exact: all the
// histograms share one bucket geometry.
func (m *Metrics) commitLatency() *obs.Histogram {
	var h obs.Histogram
	for i := range m.transports {
		h.Merge(m.transports[i].stages[stageCommitHit])
		h.Merge(m.transports[i].stages[stageCommitMiss])
	}
	return &h
}

// Snapshot returns a consistent-enough view of the counters.
func (m *Metrics) Snapshot() api.Stats {
	lat := m.commitLatency()
	served := m.stepsServed.Load()
	uniform := m.uniformReleases.Load()
	var rate float64
	if served > 0 {
		rate = float64(uniform) / float64(served)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return api.Stats{
		Sessions: api.SessionStats{
			Live:     m.sessionsLive.Load(),
			Created:  m.sessionsCreated.Load(),
			Evicted:  m.sessionsEvicted.Load(),
			Imported: m.sessionsImported.Load(),
			Exported: m.sessionsExported.Load(),
		},
		Steps: api.StepStats{
			Served:          served,
			Errors:          m.stepErrors.Load(),
			Uniform:         uniform,
			SuppressionRate: rate,
			QueueRejections: m.queueRejections.Load(),
			RebuiltCommits:  m.rebuiltCommits.Load(),
		},
		Latency: api.LatencyStats{
			P50Micros: float64(lat.Quantile(0.50)) / 1e3,
			P99Micros: float64(lat.Quantile(0.99)) / 1e3,
			Samples:   lat.Count(),
		},
		Transports: api.TransportsStats{
			HTTP:  m.transportStats(transportHTTP),
			RPC:   m.transportStats(transportRPC),
			Local: m.transportStats(transportLocal),
		},
		Streams: api.StreamStats{
			RPCOpened:      m.streamsOpened.Load(),
			RPCActive:      m.streamsActive.Load(),
			StepsStreamed:  m.streamSteps.Load(),
			AckBatches:     m.streamAcks.Load(),
			SSESubscribers: m.sseSubscribers.Load(),
			SSEDelivered:   m.sseDelivered.Load(),
			SSEDropped:     m.sseDropped.Load(),
		},
		Scheduler: api.SchedulerStats{
			AffinityPicks: m.schedAffinity.Load(),
			FIFOPicks:     m.schedFIFO.Load(),
			Requeues:      m.schedRequeues.Load(),
		},
		Runtime: api.RuntimeStats{
			Goroutines:     runtime.NumGoroutine(),
			HeapAllocBytes: mem.HeapAlloc,
			HeapObjects:    mem.HeapObjects,
			GCCycles:       mem.NumGC,
			GCPauseMicros:  float64(mem.PauseTotalNs) / 1e3,
		},
	}
}
