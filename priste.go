// Package priste is the public API of the PriSTE library, a from-scratch
// Go implementation of "PriSTE: From Location Privacy to Spatiotemporal
// Event Privacy" (Cao, Xiao, Xiong, Bai — ICDE 2019).
//
// PriSTE protects *spatiotemporal events* — Boolean combinations of
// (location, time) predicates such as "visited the hospital district some
// time this week" (PRESENCE) or "commuted from home to work this morning"
// (PATTERN) — while a user shares perturbed locations with an untrusted
// service through a location-privacy mechanism. The library provides:
//
//   - the grid map, Markov mobility model and planar-Laplace /
//     δ-location-set mechanisms the paper builds on;
//   - the two-possible-world quantifier that measures, in time linear in
//     the event length, how much ε-spatiotemporal event privacy a
//     mechanism provides (§III);
//   - the PriSTE release loop that calibrates a mechanism's budget until
//     the release conditions of Theorem IV.1 are certified for *every*
//     possible adversary initial belief (§IV), using an exact O(m²)
//     edge scan of the rank-one conditions in place of the paper's CPLEX;
//   - an experiment harness regenerating the paper's evaluation
//     (internal/experiments, driven by cmd/experiments).
//
// # Quick start
//
//	g, _ := priste.NewGrid(10, 10, 1.0)             // 10×10 map, 1 km cells
//	chain, _ := priste.GaussianChain(g, 1.0)        // local mobility model
//	region, _ := priste.RegionRect(g, 0, 0, 2, 2)   // sensitive area
//	ev, _ := priste.NewPresence(region, 3, 7)       // visited during t∈[3,7]?
//	mech := priste.NewPlanarLaplace(g)               // geo-ind mechanism
//	fw, _ := priste.NewFramework(mech, priste.Homogeneous(chain),
//	    []priste.Event{ev}, priste.DefaultConfig(0.5, 1.0), rng)
//	for _, u := range trueTrajectory {
//	    step, _ := fw.Step(u)                        // certified release
//	    fmt.Println(step.Obs, step.Alpha)
//	}
//
// Timestamps are 0-based throughout. All probability objects are dense
// float64 structures from the internal mat package, re-exported here as
// Vector and Matrix.
package priste

import (
	"io"
	"net/http"

	"priste/internal/api"
	"priste/internal/attack"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/geolife"
	"priste/internal/grid"
	"priste/internal/hmm"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/ring"
	"priste/internal/router"
	"priste/internal/rpc"
	"priste/internal/server"
	"priste/internal/store"
	"priste/internal/trace"
	"priste/internal/world"
)

// Linear algebra.
type (
	// Vector is a dense probability/weight vector.
	Vector = mat.Vector
	// Matrix is a dense row-major matrix.
	Matrix = mat.Matrix
)

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return mat.NewVector(n) }

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return mat.NewMatrix(rows, cols) }

// Map and regions.
type (
	// Grid is a rectangular cell map; states are numbered row-major.
	Grid = grid.Grid
	// Region is a set of map states (the s ∈ {0,1}^m of the paper).
	Region = grid.Region
)

// NewGrid returns a w×h grid whose cells have the given edge length in
// user units (e.g. km).
func NewGrid(w, h int, cellSize float64) (*Grid, error) { return grid.New(w, h, cellSize) }

// NewRegion returns an empty region over m states.
func NewRegion(m int) *Region { return grid.NewRegion(m) }

// RegionOf returns the region containing exactly the given states.
func RegionOf(m int, states ...int) (*Region, error) { return grid.RegionOf(m, states...) }

// RegionRect returns the region of grid cells in the inclusive rectangle
// (x0,y0)-(x1,y1).
func RegionRect(g *Grid, x0, y0, x1, y1 int) (*Region, error) {
	return grid.RegionRect(g, x0, y0, x1, y1)
}

// Mobility models.
type (
	// Chain is a first-order Markov mobility model.
	Chain = markov.Chain
	// TrainOptions controls transition-matrix estimation.
	TrainOptions = markov.TrainOptions
)

// NewChain validates and wraps a row-stochastic transition matrix.
func NewChain(t *Matrix) (*Chain, error) { return markov.NewChain(t) }

// GaussianChain builds the synthetic mobility model of §V-A: transition
// probabilities proportional to a Gaussian kernel of scale sigma.
func GaussianChain(g *Grid, sigma float64) (*Chain, error) { return markov.GaussianChain(g, sigma) }

// TrainChain estimates a transition matrix from state trajectories
// (replacing the R "markovchain" training of §V-A).
func TrainChain(trajs [][]int, opt TrainOptions) (*Chain, error) { return markov.Train(trajs, opt) }

// UniformDistribution returns the uniform distribution over m states.
func UniformDistribution(m int) Vector { return markov.Uniform(m) }

// Events (Definitions II.1–II.3).
type (
	// Event is a protectable spatiotemporal event (PRESENCE or PATTERN).
	Event = event.Event
	// Presence is "the user appears in a region during a time window".
	Presence = event.Presence
	// Pattern is "the user passes through a sequence of regions".
	Pattern = event.Pattern
	// Expr is a raw Boolean expression over (location, time) predicates.
	Expr = event.Expr
)

// NewPresence returns the PRESENCE event for region during the inclusive
// 0-based window [start, end].
func NewPresence(region *Region, start, end int) (*Presence, error) {
	return event.NewPresence(region, start, end)
}

// NewPattern returns the PATTERN event visiting regions sequentially from
// 0-based timestamp start.
func NewPattern(regions []*Region, start int) (*Pattern, error) {
	return event.NewPattern(regions, start)
}

// NewSparsePresence returns a PRESENCE event over a non-consecutive set of
// timestamps (the §II-B generalisation).
func NewSparsePresence(region *Region, times []int) (*event.SparsePresence, error) {
	return event.NewSparsePresence(region, times)
}

// NewSparsePattern returns a PATTERN event constraining a non-consecutive
// set of timestamps; in-between timestamps are unconstrained.
func NewSparsePattern(times []int, regions []*Region) (*event.SparsePattern, error) {
	return event.NewSparsePattern(times, regions)
}

// NewGeneralPresence returns a PRESENCE event with a possibly different
// region at every timestamp.
func NewGeneralPresence(regions map[int]*Region) (*event.GeneralPresence, error) {
	return event.NewGeneralPresence(regions)
}

// CompileEvent translates a Boolean expression over (location, time)
// predicates (Definition II.1) into a protectable event over an m-state
// map: pure disjunctions become PRESENCE-like events, conjunctions of
// per-timestamp disjunctions become PATTERN-like events.
func CompileEvent(e *Expr, m int) (Event, error) { return event.CompileWithStates(e, m) }

// Pred returns the predicate expression u_t = state.
func Pred(t, state int) *Expr { return event.Pred(t, state) }

// And returns the conjunction of expressions.
func And(kids ...*Expr) *Expr { return event.And(kids...) }

// Or returns the disjunction of expressions.
func Or(kids ...*Expr) *Expr { return event.Or(kids...) }

// Not returns the negation of an expression.
func Not(x *Expr) *Expr { return event.Not(x) }

// Mechanisms (LPPMs).
type (
	// Mechanism is the stateful LPPM interface the release loop drives.
	Mechanism = lppm.Perturber
	// PlanarLaplace is the geo-indistinguishability mechanism of §IV-C.
	PlanarLaplace = lppm.PlanarLaplace
	// DeltaLocationSet is the δ-location-set mechanism of §IV-D.
	DeltaLocationSet = lppm.DeltaLocationSet
)

// NewPlanarLaplace returns a discretised planar Laplace mechanism on g.
func NewPlanarLaplace(g *Grid) *PlanarLaplace { return lppm.NewPlanarLaplace(g) }

// NewDeltaLocationSet returns a δ-location-set mechanism with initial
// belief pi.
func NewDeltaLocationSet(g *Grid, chain *Chain, pi Vector, delta float64) (*DeltaLocationSet, error) {
	return lppm.NewDeltaLocationSet(g, chain, pi, delta)
}

// NewUniformMechanism returns the fully-uninformative mechanism.
func NewUniformMechanism(m int) (Mechanism, error) { return lppm.NewUniform(m) }

// Quantification (§III).
type (
	// TransitionProvider supplies per-step transition matrices.
	TransitionProvider = world.TransitionProvider
	// QuantModel binds an event to a mobility model.
	QuantModel = world.Model
	// Quantifier is the streaming privacy-loss quantifier of Algorithm 2.
	Quantifier = world.Quantifier
	// ReleaseCheck holds the Theorem IV.1 vectors for one candidate.
	ReleaseCheck = qp.ReleaseCheck
	// ReleaseOptions tunes the condition solver.
	ReleaseOptions = qp.ReleaseOptions
	// ReleaseDecision is the certified outcome for one candidate.
	ReleaseDecision = qp.ReleaseDecision
	// KernelMode selects how transition matrices compile into step
	// kernels (auto / dense / sparse CSR / naive oracle); the paths are
	// bit-equivalent.
	KernelMode = world.KernelMode
	// QuantModelOptions tunes quantification-model compilation.
	QuantModelOptions = world.ModelOptions
	// KernelStats reports compiled kernels by path (sparse vs dense).
	KernelStats = world.KernelStats
	// SparseMatrix is the compressed-sparse-row kernel format.
	SparseMatrix = mat.CSR
)

// Kernel compilation modes.
const (
	KernelAuto   = world.KernelAuto
	KernelDense  = world.KernelDense
	KernelSparse = world.KernelSparse
	// KernelOracle forces the naive dense reference kernels — the
	// bit-identical oracle the adaptive paths are tested and benchmarked
	// against.
	KernelOracle = world.KernelOracle
)

// Homogeneous wraps a time-homogeneous chain as a TransitionProvider.
func Homogeneous(c *Chain) TransitionProvider { return world.NewHomogeneous(c) }

// NewQuantModel precomputes the two-possible-world structures for an
// event under a mobility model.
func NewQuantModel(tp TransitionProvider, ev Event) (*QuantModel, error) {
	return world.NewModel(tp, ev)
}

// NewQuantModelWithOptions is NewQuantModel with explicit kernel
// compilation options.
func NewQuantModelWithOptions(tp TransitionProvider, ev Event, opts QuantModelOptions) (*QuantModel, error) {
	return world.NewModelWithOptions(tp, ev, opts)
}

// NewQuantifier returns a fresh streaming quantifier at time 0.
func NewQuantifier(md *QuantModel) *Quantifier { return world.NewQuantifier(md) }

// EventPrior computes Pr(EVENT) under an initial distribution
// (Lemma III.1).
func EventPrior(md *QuantModel, pi Vector) (float64, error) { return md.Prior(pi) }

// PrivacyLoss returns the realised ε of Definition II.4 for a fixed
// initial probability and a sequence of emission columns.
func PrivacyLoss(md *QuantModel, pi Vector, emissions []Vector) (float64, error) {
	return world.PrivacyLoss(md, pi, emissions)
}

// CheckRelease certifies the Theorem IV.1 conditions for one candidate
// observation over all initial probabilities.
func CheckRelease(chk ReleaseCheck, opt ReleaseOptions) (ReleaseDecision, error) {
	return qp.CheckRelease(chk, opt)
}

// Release loop (§IV).
type (
	// Framework is the PriSTE release loop (Algorithms 1–3).
	Framework = core.Framework
	// Config tunes the release loop.
	Config = core.Config
	// StepResult records one released timestamp.
	StepResult = core.StepResult
)

// DefaultConfig returns the paper's defaults: halving budget decay and a
// one-second conservative-release threshold.
func DefaultConfig(epsilon, alpha float64) Config { return core.DefaultConfig(epsilon, alpha) }

// Rand is the random source a session draws candidate observations
// from; both math/rand and math/rand/v2 generators satisfy it. Durable
// sessions use SessionRNG, whose state is binary-marshalable.
type Rand = core.Rand

// SessionRNG is a binary-marshalable PCG session RNG: persisted sessions
// resume the exact candidate sequence of an uninterrupted run.
type SessionRNG = core.SessionRNG

// NewSessionRNG returns a session RNG deterministically derived from
// seed.
func NewSessionRNG(seed int64) *SessionRNG { return core.NewSessionRNG(seed) }

// NewFramework builds a release loop protecting the given events.
func NewFramework(mech Mechanism, tp TransitionProvider, events []Event, cfg Config, rng Rand) (*Framework, error) {
	return core.New(mech, tp, events, cfg, rng)
}

// Plan/state split: a Plan is the immutable, shareable half of the engine
// (validated config, compiled world models, uniform fallback, and — for
// history-independent mechanisms — one shared emission table and an
// optional certified-release cache); Plan.NewSession mints lightweight
// per-session Frameworks over it.
type (
	// Plan is the immutable compiled engine shared by many sessions.
	Plan = core.Plan
	// MechanismFactory builds one per-session mechanism instance.
	MechanismFactory = core.MechanismFactory
	// CertCache is the sharded, bounded-LRU certified-release cache.
	CertCache = certcache.Cache
	// CertCacheKey identifies one cached release check.
	CertCacheKey = certcache.Key
	// CertCacheStats is a point-in-time view of the cache counters.
	CertCacheStats = certcache.Stats
)

// NewPlan compiles the world models for the given events once, for any
// number of sessions (Plan.NewSession).
func NewPlan(mf MechanismFactory, tp TransitionProvider, events []Event, cfg Config) (*Plan, error) {
	return core.NewPlan(mf, tp, events, cfg)
}

// SharedMechanism adapts one history-independent mechanism instance into
// a factory handing it to every session of a plan.
func SharedMechanism(mech Mechanism) MechanismFactory { return core.SharedMechanism(mech) }

// NewCertCache returns a certified-release cache bounded to roughly
// capacity decisions; attach it with Plan.EnableCache.
func NewCertCache(capacity int) *CertCache { return certcache.New(capacity) }

// ParseEventSpec parses a compact "LO-HI@START-END" PRESENCE spec (the
// syntax of cmd/priste and the pristed API) over an m-state map. A
// non-positive horizon disables the window bound.
func ParseEventSpec(spec string, m, horizon int) (Event, error) {
	return eventspec.Parse(spec, m, horizon)
}

// Serving (cmd/pristed): a concurrent multi-user release service managing
// one privacy session — a Framework with its own RNG, mechanism and event
// set — per user. The service surface is the versioned, transport-neutral
// internal/api package (APIService/APIClient below); the HTTP/JSON
// handlers, the binary RPC transport and the pristectl CLI are thin
// codecs over it.
type (
	// Server is the multi-user release service; it implements APIService.
	Server = server.Server
	// ServerConfig tunes the service: world model, privacy defaults and
	// limits (session cap, idle TTL, worker pool, queue depth).
	ServerConfig = server.Config
	// ServerClient is the typed client for the pristed HTTP transport.
	ServerClient = server.Client
	// SessionInfo is a session's public state.
	SessionInfo = api.SessionInfo
	// CreateSessionRequest opens a per-user session.
	CreateSessionRequest = api.CreateSessionRequest
	// StepResponse is one certified release from the service API.
	StepResponse = api.StepResponse
	// BatchStepItem is one entry of the multi-user batch endpoint.
	BatchStepItem = api.BatchStepItem
	// ServerStats is the /statsz counter snapshot.
	ServerStats = api.Stats
	// TransportStats is one transport's serving-latency and per-stage
	// breakdown inside ServerStats.
	TransportStats = api.TransportStats
)

// Versioned API core: the transport-neutral service and client
// interfaces plus the canonical error model every transport round-trips.
type (
	// APIService is the transport-neutral service surface *Server
	// implements; every front-end (HTTP, RPC, CLI) drives exactly it.
	APIService = api.Service
	// APIClient is the transport-neutral typed client interface; the
	// HTTP ServerClient and the binary RPCClient both satisfy it.
	APIClient = api.Client
	// APIError is the typed error every transport round-trips; use
	// errors.Is against the server sentinels or inspect its Code.
	APIError = api.Error
	// APICode is the canonical error-code enum (not_found,
	// already_exists, session_closed, resource_exhausted, ...).
	APICode = api.Code
	// SessionPage is one page of the paginated session list.
	SessionPage = api.SessionPage
	// SessionExport is a session's complete migratable state: the
	// payload of the export/import endpoints that hand a session from
	// one pristed instance to another.
	SessionExport = api.SessionExport
	// StepStream is a windowed, order-preserving step pipe into one
	// session: fire-and-forget Send, FIFO Recv of certified releases,
	// backpressure when the in-flight window is exhausted.
	StepStream = api.StepStream
	// StreamClient is the client extension for streaming ingest; the
	// binary RPCClient implements it, the HTTP ServerClient does not.
	StreamClient = api.StreamClient
)

// RPC transport: a length-prefixed binary frame protocol over TCP with
// persistent per-connection session streams — the low-overhead path for
// high-frequency stepping (see internal/rpc for the framing).
type (
	// RPCServer serves the binary RPC protocol over any APIService.
	RPCServer = rpc.Server
	// RPCClient is the binary RPC client; it implements APIClient.
	RPCClient = rpc.Client
)

// DefaultServerConfig returns the pristed defaults (10×10 map,
// geo-indistinguishability, ε=0.5).
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// NewServer starts a release service (worker pool and idle-session
// janitor included); release it with Close.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewServerClient returns a typed client for the pristed instance at
// baseURL; httpClient nil uses http.DefaultClient.
func NewServerClient(baseURL string, httpClient *http.Client) *ServerClient {
	return server.NewClient(baseURL, httpClient)
}

// NewRPCServer returns a binary RPC front-end over a release service;
// serve it with Serve(net.Listener). The per-transport request and
// step-stage observers are pre-wired into the service's /statsz and
// /metricsz instrumentation.
func NewRPCServer(srv *Server) *RPCServer {
	rs := rpc.NewServer(srv)
	rs.Observe = srv.ObserveRPC
	rs.ObserveStep = srv.ObserveRPCStep
	rs.OnStreamOpen = srv.ObserveStreamOpen
	rs.OnStreamClose = srv.ObserveStreamClose
	rs.ObserveStreamWindow = srv.ObserveStreamWindow
	rs.ObserveStreamAcks = srv.ObserveStreamAcks
	return rs
}

// DialRPC returns a binary RPC client for the pristed RPC listener at
// addr (connected lazily on first use).
func DialRPC(addr string) (*RPCClient, error) { return rpc.Dial(addr) }

// Fleet (cmd/pristerouter): a stateless front door that shards sessions
// across many pristed backends with a consistent-hash ring and serves
// the same versioned API a single pristed does. Ring changes re-home
// only the sessions in the moved hash ranges through the export→import
// migration path, fingerprint-verified, with in-flight steps parked per
// session during each handoff.
type (
	// Ring is the immutable consistent-hash ring (virtual nodes,
	// deterministic placement, minimal movement on membership change).
	Ring = ring.Ring
	// Router is the fleet session router; it implements APIService over
	// a set of RouterBackends.
	Router = router.Router
	// RouterConfig tunes the router: backends, ring width, health-probe
	// hysteresis and migration/call timeouts.
	RouterConfig = router.Config
	// RouterBackend names one pristed backend and the APIClient to
	// reach it.
	RouterBackend = router.Backend
	// RebalanceReport summarises one drain/re-home pass.
	RebalanceReport = router.RebalanceReport
	// FleetStats is the router's /statsz fleet section: ring epoch,
	// per-backend health/placement and the migration counters.
	FleetStats = api.FleetStats
)

// NewRing returns a consistent-hash ring over the named members with
// vnodes virtual nodes each (vnodes <= 0 uses the default, 128).
func NewRing(vnodes int, members ...string) *Ring { return ring.New(vnodes, members...) }

// NewRouter starts a fleet router (health-probe loop included) over the
// configured backends; release it with Shutdown. Its Handler serves the
// pristed HTTP surface plus the /v1/fleet admin routes, and it can sit
// behind an RPCServer like any APIService.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// Durability: sessions survive restarts through a pluggable store — an
// append-only per-session WAL of committed release tags plus periodic
// snapshots — replayed deterministically through the shared compiled
// Plan on startup (see Plan.Restore and ServerConfig.Store).
type (
	// Store is the session durability backend.
	Store = store.Store
	// FileStore is the default file-backed store (one WAL + snapshot per
	// session under a directory).
	FileStore = store.FileStore
	// NullStore is the in-memory no-op store.
	NullStore = store.Null
	// SessionSnapshot is a complete serialisable image of one session's
	// mutable engine state.
	SessionSnapshot = core.Snapshot
	// ReleaseTag is one committed (budget, observation) release pair.
	ReleaseTag = core.ReleaseTag
	// StoreStats counts store activity for /statsz.
	StoreStats = store.Stats
)

// OpenStore opens (creating if needed) a file-backed session store
// rooted at dir. With fsync true every WAL append is synced to stable
// storage before the step is acknowledged.
func OpenStore(dir string, fsync bool) (*FileStore, error) { return store.Open(dir, fsync) }

// Inference extras.
type (
	// HMM bundles a chain, an initial belief and an emission model for
	// forward-backward inference (used by adversary simulations).
	HMM = hmm.Model
	// EmissionModel supplies observation likelihood columns.
	EmissionModel = hmm.EmissionModel
)

// NewHMM builds an HMM from a chain, an initial distribution and an
// emission matrix.
func NewHMM(c *Chain, pi Vector, emission *Matrix) (*HMM, error) {
	em, err := hmm.NewMatrixEmission(emission)
	if err != nil {
		return nil, err
	}
	return hmm.NewModel(c, pi, em)
}

// Mobility data.
type (
	// MobilityDataset is a corpus of synthetic Geolife-like traces.
	MobilityDataset = geolife.Dataset
	// MobilityConfig controls the trace generator.
	MobilityConfig = geolife.Config
	// RawTrajectory is a continuous (x, y, t) trace.
	RawTrajectory = trace.Raw
	// TracePoint is one raw trajectory record.
	TracePoint = trace.Point
)

// GenerateMobility synthesises Geolife-like commute traces (the paper's
// real-data substitute; see the internal/geolife package doc).
func GenerateMobility(cfg MobilityConfig) (*MobilityDataset, error) { return geolife.Generate(cfg) }

// Discretize maps a raw trajectory onto grid states.
func Discretize(g *Grid, raw RawTrajectory) []int { return trace.Discretize(g, raw) }

// WriteStates writes state trajectories as CSV, one per line.
func WriteStates(w io.Writer, trajs [][]int) error { return trace.WriteStates(w, trajs) }

// ReadStates parses CSV state trajectories.
func ReadStates(r io.Reader) ([][]int, error) { return trace.ReadStates(r) }

// EmpiricalInitial estimates an initial distribution from trajectory
// starting states.
func EmpiricalInitial(trajs [][]int, m int, smoothing float64) (Vector, error) {
	return markov.EmpiricalInitial(trajs, m, smoothing)
}

// Adversary simulation.
type (
	// Adversary is a Bayesian observer knowing the mobility model and the
	// mechanism, used to demonstrate the attacks PriSTE defends against.
	Adversary = attack.Adversary
	// EventInference is the outcome of the event-decision attack.
	EventInference = attack.EventInference
	// LocationInference is the outcome of the localisation attack.
	LocationInference = attack.LocationInference
)

// NewAdversary builds an attack simulator; the grid may be nil when
// distance metrics are not needed.
func NewAdversary(chain *Chain, pi Vector, g *Grid) (*Adversary, error) {
	return attack.NewAdversary(chain, pi, g)
}

// EventPosterior returns the adversary's belief trajectory
// Pr(EVENT | o₀..o_t) for each observation prefix.
func EventPosterior(md *QuantModel, pi Vector, emissions []Vector) ([]float64, error) {
	return world.EventPosterior(md, pi, emissions)
}

// Real Geolife data support (the repository ships a synthetic substitute;
// these parse the actual dataset when available).
type (
	// PLTPoint is one record of a Geolife .plt file.
	PLTPoint = geolife.PLTPoint
	// ResampleOptions controls PLT-to-trajectory conversion.
	ResampleOptions = geolife.ResampleOptions
)

// ParsePLT reads one Geolife .plt file.
func ParsePLT(r io.Reader) ([]PLTPoint, error) { return geolife.ParsePLT(r) }

// ResamplePLT converts parsed records into fixed-interval km trajectories.
func ResamplePLT(points []PLTPoint, opt ResampleOptions) ([]RawTrajectory, error) {
	trajs, _, err := geolife.Resample(points, opt)
	return trajs, err
}

// DiscretizePLT maps km trajectories onto an automatically-sized grid.
func DiscretizePLT(trajs []RawTrajectory, cellKm float64, maxSide int) ([][]int, *Grid, error) {
	return geolife.DiscretizeAll(trajs, cellKm, maxSide)
}
