package api

import "priste/internal/store"

// Stats is the JSON document served at /statsz (and by the RPC stats
// call): service counters plus the plan-registry, certified-release
// cache, durability and per-transport sections.
type Stats struct {
	Sessions   SessionStats    `json:"sessions"`
	Steps      StepStats       `json:"steps"`
	Latency    LatencyStats    `json:"latency"`
	Plans      PlanStats       `json:"plans"`
	CertCache  CertCacheStats  `json:"cert_cache"`
	Store      StoreStats      `json:"store"`
	Transports TransportsStats `json:"transports"`
	Streams    StreamStats     `json:"streams"`
	Scheduler  SchedulerStats  `json:"scheduler"`
	Runtime    RuntimeStats    `json:"runtime"`
	// Fleet is the router's fleet section: present only on the /statsz
	// document of a pristerouter (internal/router), where Sessions and
	// Steps above are sums over the reachable backends. Plain pristed
	// instances leave it nil.
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// FleetStats is the router's /statsz fleet section: the consistent-hash
// ring state, the per-backend membership/health/routing breakdown, and
// the rebalancing counters. Epoch increments on every ring change
// (ejection, readmission, operator drain); MisrouteRetries counts
// requests the router re-routed internally after racing a ring change
// (the CodeWrongBackend path).
type FleetStats struct {
	Epoch               int64              `json:"epoch"`
	VirtualNodes        int                `json:"virtual_nodes"`
	Members             []FleetMemberStats `json:"members"`
	HealthTransitions   int64              `json:"health_transitions"`
	MigrationsStarted   int64              `json:"migrations_started"`
	MigrationsCompleted int64              `json:"migrations_completed"`
	MigrationsFailed    int64              `json:"migrations_failed"`
	MisrouteRetries     int64              `json:"misroute_retries"`
}

// FleetMemberStats is one backend's row in the fleet section. Sessions
// is the backend's live-session count from its last reachable stats
// fan-out (0 when it has never been reachable); Routes counts requests
// this router sent it over its lifetime. A member can be healthy but
// out of the ring (operator-drained, or not yet readmitted) — InRing is
// what routing actually uses.
type FleetMemberStats struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	InRing   bool   `json:"in_ring"`
	Draining bool   `json:"draining"`
	Sessions int64  `json:"sessions"`
	Routes   int64  `json:"routes"`
}

// StreamStats is the /statsz streaming section: RPC step streams, SSE
// release subscribers, and the streaming-window occupancy that the
// unary queue gauges do not cover. WindowOccupancy is the number of
// streamed steps currently in flight (submitted, not yet acked) across
// all streams; PerShardWindow breaks it down by session-manager shard
// so hot shards are visible next to their queue gauges. StepsStreamed
// counts steps acked on RPC step streams; step streams are RPC-only.
type StreamStats struct {
	RPCOpened       int64   `json:"rpc_opened"`
	RPCActive       int64   `json:"rpc_active"`
	StepsStreamed   int64   `json:"steps_streamed"`
	AckBatches      int64   `json:"ack_batches"`
	SSESubscribers  int64   `json:"sse_subscribers"`
	SSEDelivered    int64   `json:"sse_delivered"`
	SSEDropped      int64   `json:"sse_dropped"`
	WindowOccupancy int64   `json:"window_occupancy"`
	PerShardWindow  []int64 `json:"per_shard_window"`
}

// SchedulerStats is the /statsz worker-pool scheduling section. The
// run queue serves sessions in arrival order; Requeues counts sessions
// parked back at its tail after hitting the per-visit drain batch (the
// fairness cap).
type SchedulerStats struct {
	Requeues int64 `json:"requeues"`
}

// RuntimeStats is the /statsz Go-runtime section (the same numbers the
// go_* gauges expose at /metricsz).
type RuntimeStats struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseMicros  float64 `json:"gc_pause_us"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// SessionStats counts session lifecycle events.
type SessionStats struct {
	Live     int64 `json:"live"`
	Created  int64 `json:"created"`
	Evicted  int64 `json:"evicted"`
	Imported int64 `json:"imported"`
	Exported int64 `json:"exported"`
}

// StepStats counts served steps. SuppressionRate is the fraction of
// released timestamps that fell back to the uniform (zero-information)
// release. RebuiltCommits counts the committed releases whose operator
// products were actually computed: the engine defers them until a check
// misses the certified-release cache, so Served − RebuiltCommits is the
// commits no later check ever read (and a burst of them on one step is a
// session rebuilding after a run of hits, a restart or a migration).
type StepStats struct {
	Served          int64   `json:"served"`
	Errors          int64   `json:"errors"`
	Uniform         int64   `json:"uniform"`
	SuppressionRate float64 `json:"suppression_rate"`
	QueueRejections int64   `json:"queue_rejections"`
	RebuiltCommits  int64   `json:"rebuilt_commits"`
}

// LatencyStats summarises engine commit latency (the worker-pool
// Framework.Step call less any operator rebuild it triggered — that is
// the rebuild stage — all transports merged). The quantiles come from
// the lifetime latency histogram — log-spaced buckets with ≤12.5%
// relative quantization error — and Samples counts the observations
// backing them (equals Steps.Served).
type LatencyStats struct {
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	Samples   int64   `json:"samples"`
}

// PlanStats is the /statsz plan-registry section.
type PlanStats struct {
	// Live is the number of retained compiled plans.
	Live int64 `json:"live"`
	// Compiled counts plan compilations (cache misses at the plan level).
	Compiled int64 `json:"compiled"`
	// SharedHits counts session creations served by an existing plan.
	SharedHits int64 `json:"shared_hits"`
	// SparseKernels and DenseKernels count the compiled transition
	// kernels across retained plans by path (see world.KernelStats);
	// KernelDensity is their mean per-kernel density. They report which
	// path the release hot loop actually runs on.
	SparseKernels int64   `json:"sparse_kernels"`
	DenseKernels  int64   `json:"dense_kernels"`
	KernelDensity float64 `json:"kernel_density"`
	// BlockedKernels counts the dense operator products executed
	// through the row primitive across retained plans (dispatch events,
	// not compiled kernels; "blocked" is the name of the kernel it used
	// to count).
	BlockedKernels int64 `json:"blocked_kernels"`
	// FactoredKernels counts the operator products run as two passes
	// over a mobility chain's Kronecker factors (the exact Gaussian
	// chain; dispatch events too).
	FactoredKernels int64 `json:"factored_kernels"`
}

// CertCacheStats is the /statsz certified-release cache section. HitRate
// is hits/(hits+misses) over the cache lifetime; Bytes is the size of
// the cache's tables; all-zero with Enabled false when the cache is
// disabled.
type CertCacheStats struct {
	Enabled   bool    `json:"enabled"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// StoreStats is the /statsz durability section: the store's own
// counters (appends, fsyncs, snapshots, ...) plus the serving layer's
// view of it — append failures, startup session replays and their total
// latency. A replay
// validates a journal (tag ranges, fingerprint chain, RNG state) and
// re-registers the session; the operator rebuild it used to include now
// happens at the session's first cache miss and is reported as the
// rebuild stage and StepStats.RebuiltCommits.
type StoreStats struct {
	store.Stats
	// AppendErrors counts failed write-ahead journal appends (acknowledged
	// steps whose record was lost); SnapshotErrors failed snapshot
	// records (self-healing at the next cadence); TombstoneErrors failed
	// delete/evict tombstones.
	AppendErrors    int64   `json:"append_errors"`
	SnapshotErrors  int64   `json:"snapshot_errors"`
	TombstoneErrors int64   `json:"tombstone_errors"`
	Replayed        int64   `json:"replayed"`
	ReplayFailures  int64   `json:"replay_failures"`
	ReplayMicros    float64 `json:"replay_us"`
}

// TransportsStats breaks request counts, latency and the per-step stage
// timing down by ingress transport. Local covers steps driven through
// the Server's Go API directly (embedding library callers, tests) —
// engine-side stages are attributed there when no transport tagged the
// request context.
type TransportsStats struct {
	HTTP  TransportStats `json:"http"`
	RPC   TransportStats `json:"rpc"`
	Local TransportStats `json:"local"`
}

// TransportStats is one transport's /statsz section. Requests and the
// request quantiles cover every request served on the transport (steps,
// control calls, health probes). Steps counts successfully served step
// requests, StepMeanMicros/StepP99Micros their end-to-end served
// latency (HTTP: handler entry to response written; RPC: frame decoded
// to response frame written), and Stages breaks that latency into the
// named pipeline stages — the per-stage means sum to approximately the
// end-to-end step mean. Quantiles come from lifetime log-spaced-bucket
// histograms (≤12.5% relative error).
type TransportStats struct {
	Requests  int64   `json:"requests"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`

	Steps          int64                 `json:"steps,omitempty"`
	StepMeanMicros float64               `json:"step_mean_us,omitempty"`
	StepP99Micros  float64               `json:"step_p99_us,omitempty"`
	Stages         map[string]StageStats `json:"stages,omitempty"`
}

// StageStats is one pipeline stage's timing on one transport. Stage
// names and semantics:
//
//	decode      parse the step request (JSON body / binary frame)
//	queue_wait  enqueue to worker pickup on the session FIFO
//	commit_hit  engine commit, every release-condition check served
//	            from the certified-release cache
//	commit_miss engine commit with at least one cache miss (or no cache),
//	            less the rebuild below
//	rebuild     replaying committed release tags into the quantifier
//	            operators, on the first miss after a run of hits, a
//	            restart or an import (a stateful session: its own commit)
//	wal_append  write-ahead journaling of the committed release
//	encode      render + write the response (JSON / binary frame)
//
// Journal fsync time is not per-transport (the sync batches appends from
// every transport); it is reported in StoreStats.FsyncMicros and the
// priste_wal_fsync_seconds histogram.
type StageStats struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P99Micros  float64 `json:"p99_us"`
}
