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
//   - a Bayesian adversary that replays the attacks PriSTE defends
//     against.
//
// This file declares what the examples, the command-line tools
// (cmd/priste, cmd/quantify, cmd/tracegen) and the benchmarks use, and
// the types those declarations name; TestFacadeExportsHaveCallers keeps
// it that way. The release service (cmd/pristed, cmd/pristerouter) is
// not part of it: its clients speak HTTP/JSON or the binary RPC
// protocol documented in the README.
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
// ExampleNewFramework is the same walk as a compiled, checked example.
//
// Timestamps are 0-based throughout. All probability objects are dense
// float64 structures from the internal mat package, re-exported here as
// Vector and Matrix.
package priste

import (
	"io"

	"priste/internal/attack"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/geolife"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
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

// ParseEventSpec parses a compact "LO-HI@START-END" PRESENCE spec (the
// syntax of the command-line tools and the pristed API) over an m-state
// map. A non-positive horizon disables the window bound.
func ParseEventSpec(spec string, m, horizon int) (Event, error) {
	return eventspec.Parse(spec, m, horizon)
}

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

// Quantification (§III).
type (
	// TransitionProvider supplies per-step transition matrices.
	TransitionProvider = world.TransitionProvider
	// QuantModel binds an event to a mobility model.
	QuantModel = world.Model
)

// Homogeneous wraps a time-homogeneous chain as a TransitionProvider.
func Homogeneous(c *Chain) TransitionProvider { return world.NewHomogeneous(c) }

// NewQuantModel precomputes the two-possible-world structures for an
// event under a mobility model.
func NewQuantModel(tp TransitionProvider, ev Event) (*QuantModel, error) {
	return world.NewModel(tp, ev)
}

// EventPrior computes Pr(EVENT) under an initial distribution
// (Lemma III.1).
func EventPrior(md *QuantModel, pi Vector) (float64, error) { return md.Prior(pi) }

// PrivacyLoss returns the realised ε of Definition II.4 for a fixed
// initial probability and a sequence of emission columns.
func PrivacyLoss(md *QuantModel, pi Vector, emissions []Vector) (float64, error) {
	return world.PrivacyLoss(md, pi, emissions)
}

// EventPosterior returns the adversary's belief trajectory
// Pr(EVENT | o₀..o_t) for each observation prefix.
func EventPosterior(md *QuantModel, pi Vector, emissions []Vector) ([]float64, error) {
	return world.EventPosterior(md, pi, emissions)
}

// Release loop (§IV).
type (
	// Framework is the PriSTE release loop (Algorithms 1–3).
	Framework = core.Framework
	// Config tunes the release loop.
	Config = core.Config
	// Rand is the random source a session draws candidate observations
	// from; both math/rand and math/rand/v2 generators satisfy it.
	Rand = core.Rand
)

// DefaultConfig returns the paper's defaults: halving budget decay and a
// one-second conservative-release threshold.
func DefaultConfig(epsilon, alpha float64) Config { return core.DefaultConfig(epsilon, alpha) }

// NewFramework builds a release loop protecting the given events.
func NewFramework(mech Mechanism, tp TransitionProvider, events []Event, cfg Config, rng Rand) (*Framework, error) {
	return core.New(mech, tp, events, cfg, rng)
}

// Plan/state split: a Plan is the immutable, shareable half of the engine
// (validated config, compiled world models, uniform fallback, and — for
// history-independent mechanisms — one shared emission table and an
// optional certified-release cache); Plan.NewSession mints lightweight
// per-session Frameworks over it, and Plan.Restore rebuilds one from a
// SessionSnapshot.
type (
	// Plan is the immutable compiled engine shared by many sessions.
	Plan = core.Plan
	// MechanismFactory builds one per-session mechanism instance.
	MechanismFactory = core.MechanismFactory
	// CertCache is the sharded, bounded-LRU certified-release cache.
	CertCache = certcache.Cache
	// SessionRNG is a binary-marshalable PCG session RNG: a restored
	// session resumes the exact candidate sequence of an uninterrupted
	// run.
	SessionRNG = core.SessionRNG
	// SessionSnapshot is a complete serialisable image of one session's
	// mutable engine state.
	SessionSnapshot = core.Snapshot
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

// NewSessionRNG returns a session RNG deterministically derived from
// seed.
func NewSessionRNG(seed int64) *SessionRNG { return core.NewSessionRNG(seed) }

// Mobility data.
type (
	// MobilityDataset is a corpus of synthetic Geolife-like traces.
	MobilityDataset = geolife.Dataset
	// MobilityConfig controls the trace generator.
	MobilityConfig = geolife.Config
)

// GenerateMobility synthesises Geolife-like commute traces (the paper's
// real-data substitute; see the internal/geolife package doc).
func GenerateMobility(cfg MobilityConfig) (*MobilityDataset, error) { return geolife.Generate(cfg) }

// WriteStates writes state trajectories as CSV, one per line.
func WriteStates(w io.Writer, trajs [][]int) error { return trace.WriteStates(w, trajs) }

// ReadStates parses CSV state trajectories.
func ReadStates(r io.Reader) ([][]int, error) { return trace.ReadStates(r) }

// Adversary is a Bayesian observer knowing the mobility model and the
// mechanism, used to demonstrate the attacks PriSTE defends against.
type Adversary = attack.Adversary

// NewAdversary builds an attack simulator; the grid may be nil when
// distance metrics are not needed.
func NewAdversary(chain *Chain, pi Vector, g *Grid) (*Adversary, error) {
	return attack.NewAdversary(chain, pi, g)
}
