package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"priste/internal/api"
	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/server"
)

// workloadSpec is one row of the workload table (README.md). Sizes were
// calibrated once on the 2-core contract box so that a whole run —
// set-ups, the measured phase, recovery cycles and verification — ends
// within the driver's per-run share, and are frozen here.
type workloadSpec struct {
	name string
	why  string

	grid    int    // map side; m = grid²
	event   string // protected PRESENCE spec
	horizon int    // steps per user

	clients int // closed-loop callers
	// distinct is the number of distinct (seed, trajectory) pairs the
	// users recycle; 0 makes every user a fresh pair. The pairs are the
	// first generated ones that replay from the cert cache (see
	// generator.warm).
	distinct int
	// residents sessions are loaded during set-up and stay live through
	// the measured phase and recovery, each holding residentSteps
	// committed releases. They replicate panelPairs pairs of the panel,
	// the one input that does not depend on the run seed (see
	// inputs.generate): the standing population, what a restart replays
	// and what release_err_km averages are the same in every run.
	residents     int
	residentSteps int
	panelPairs    int

	fleet bool // 3 backends behind the router

	setups   int // set-ups per run; setup_s is their median
	recovers int // recovery cycles per run; recover_s is the fastest

	oracleSamples int // resident sessions re-run through the oracle kernel
	lossSamples   int // resident sessions whose realised loss is checked
	traceUsers    int // users replayed rung by rung in the traced run; at most distinct, so the cold engine pass never meets a pair twice
}

var workloads = []workloadSpec{
	{
		name: "replay-small",
		why:  "6x6 map, 4 clients replaying 8 (seed, trajectory) pairs of 192 steps: every release check hits the cert cache, so rpc, server queueing and certcache carry the run; qp and mat do nothing",
		grid: 6, event: "0-5@2-4", horizon: 192,
		clients: 4, distinct: 8, residents: 1024, residentSteps: 48, panelPairs: 8,
		setups: 3, recovers: 4,
		oracleSamples: 16, lossSamples: 8, traceUsers: 4,
	},
	{
		name: "unique-mid",
		why:  "10x10 map (the daemon default), 4 clients, every session a fresh seed: few cache hits and about 5 candidates a step, so world.CheckTrusted and qp.CheckRelease are the run",
		grid: 10, event: "0-9@3-7", horizon: 12,
		clients: 4, distinct: 0, residents: 256, residentSteps: 9, panelPairs: 32,
		setups: 3, recovers: 4,
		oracleSamples: 16, lossSamples: 8, traceUsers: 12,
	},
	{
		name: "replay-dense",
		why:  "16x16 dense Gaussian map, one client replaying 8 pairs: checks hit the cache and the step is world.Commit's m x m operator products; the only regime where internal/par fans tiles out",
		grid: 16, event: "0-127@3-7", horizon: 12,
		clients: 1, distinct: 8, residents: 28, residentSteps: 12, panelPairs: 4,
		setups: 2, recovers: 4,
		oracleSamples: 1, lossSamples: 0, traceUsers: 2,
	},
	{
		name: "durable-fleet",
		why:  "6x6 map, 4 clients replaying 4 pairs of 128 steps through the router to 3 backends, each with its own journal: the proxied rpc hop, ring.Owner and 3 caches carry the run; recovery reopens 3 stores",
		grid: 6, event: "0-5@2-4", horizon: 128,
		clients: 4, distinct: 4, residents: 512, residentSteps: 32, panelPairs: 8,
		fleet:  true,
		setups: 5, recovers: 8,
		oracleSamples: 16, lossSamples: 0, traceUsers: 4,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// smoke shrinks a workload to a size a unit test can afford: a couple of
// pairs and residents, one set-up, one recovery cycle. It keeps every
// phase and every check.
func (w workloadSpec) smoke() workloadSpec {
	w.distinct = min(w.distinct, 1)
	w.horizon = min(w.horizon, 12)
	w.residentSteps = min(w.residentSteps, 6)
	w.residents = min(w.residents, 3)
	w.panelPairs = min(w.panelPairs, 2)
	w.setups, w.recovers = 1, 1
	w.oracleSamples = min(w.oracleSamples, 1)
	w.lossSamples = min(w.lossSamples, 1)
	w.traceUsers = 1
	return w
}

// backends is the number of pristed instances the workload deploys.
func (w workloadSpec) backends() int {
	if w.fleet {
		return 3
	}
	return 1
}

// serverConfig is the daemon configuration shared by every backend of
// the workload: the pristed defaults (ε=0.5, α=1, planar Laplace, σ=1,
// 1 km cells) on the workload's map, with the QP deadline off so that
// releases are a function of the inputs alone.
func (w workloadSpec) serverConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.GridW, cfg.GridH = w.grid, w.grid
	cfg.Events = []string{w.event}
	cfg.QPTimeout = 0
	return cfg
}

// user is one generated input: a session seed and the true trajectory.
type user struct {
	seed int64
	traj []int
}

// pair is a user the run replays, with the releases it produced the
// first time the service ran it: every later replica must repeat them.
type pair struct {
	user
	ref []api.ReleaseTag
}

// inputs generates everything the service is fed. It models the world
// the same way the daemon does (same grid, same Gaussian chain) because
// trajectories are drawn from that chain and the verifier recomputes
// releases against it.
type inputs struct {
	spec  workloadSpec
	seed  int64
	g     *grid.Grid
	chain *markov.Chain
	pi    mat.Vector
	ev    event.Event
	// pairs are the distinct pairs of a replay workload and panel the
	// pairs the residents replicate, both chosen by the warm-up pass of
	// the first set-up of a run and reused by the later ones.
	pairs, panel []pair
}

func newInputs(spec workloadSpec, seed int64) (*inputs, error) {
	cfg := spec.serverConfig()
	g, err := grid.New(cfg.GridW, cfg.GridH, cfg.Cell)
	if err != nil {
		return nil, err
	}
	chain, err := markov.GaussianChain(g, cfg.Sigma)
	if err != nil {
		return nil, err
	}
	ev, err := eventspec.Parse(spec.event, g.States(), 0)
	if err != nil {
		return nil, err
	}
	return &inputs{spec: spec, seed: seed, g: g, chain: chain, pi: markov.Uniform(g.States()), ev: ev}, nil
}

// panelStream is the one stream generated without the run seed.
const panelStream = "panel"

// generate derives input number k of a stream from (run seed, workload,
// stream), so streams never share draws and the same seed always yields
// the same inputs. The panel stream leaves the run seed out: the
// residents are the same sessions in every run of a workload, so that
// the work of loading and recovering them, and the utility measured on
// their releases, are comparable between runs on different seeds to the
// last digit. Everything the measured phase sends is seeded.
func (in *inputs) generate(stream string, k int) user {
	seed := in.seed
	if stream == panelStream {
		seed = 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/%d", seed, in.spec.name, stream, k)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return user{seed: rng.Int63(), traj: in.chain.SamplePath(rng, in.pi, in.spec.horizon)}
}

// measured returns the n-th user of the measured phase: pair n mod
// distinct on a replay workload, a fresh pair otherwise.
func (in *inputs) measured(n int) user {
	if len(in.pairs) > 0 {
		return in.pairs[n%len(in.pairs)].user
	}
	return in.generate("user", n)
}

// measuredRef is what measured user n must release, nil when it is a
// fresh pair.
func (in *inputs) measuredRef(n int) []api.ReleaseTag {
	if len(in.pairs) > 0 {
		return in.pairs[n%len(in.pairs)].ref
	}
	return nil
}

// resident returns the r-th resident's input, a replica of a panel pair.
func (in *inputs) resident(r int) pair { return in.panel[r%len(in.panel)] }

func (in *inputs) measuredID(n int) string { return fmt.Sprintf("%s-%d", in.spec.name, n) }
func (in *inputs) residentID(r int) string { return fmt.Sprintf("%s-res-%d", in.spec.name, r) }
func (in *inputs) warmID(stream string, k int) string {
	return fmt.Sprintf("%s-warm-%s-%d", in.spec.name, stream, k)
}
