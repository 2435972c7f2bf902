package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"priste/internal/api"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/lppm"
	"priste/internal/mat"
	"priste/internal/world"
)

// lossSlack is how far a realised privacy loss may exceed ε before it
// counts as a violation: the QP certifies each condition to its own
// 1e-9 tolerance on a normalised problem, and the loss is recomputed
// here through a different chain of floating-point operations.
const lossSlack = 1e-6

// engine is the harness's own copy of the engine inputs of a workload —
// mechanism, mobility model, protected events, release-loop settings —
// from which it compiles reference plans that share nothing with the
// service under test.
type engine struct {
	in     *inputs
	mech   *lppm.PlanarLaplace
	tp     *world.Homogeneous
	events []event.Event
	cfg    core.Config
	// The uniform fallback's emission matrix and its (constant) column.
	uniformEm  *mat.Matrix
	uniformCol mat.Vector
}

func newEngine(in *inputs) *engine {
	scfg := in.spec.serverConfig()
	cfg := core.DefaultConfig(scfg.Epsilon, scfg.Alpha)
	cfg.QPTimeout = scfg.QPTimeout
	m := in.g.States()
	e := &engine{
		in:         in,
		mech:       lppm.NewPlanarLaplace(in.g),
		tp:         world.NewHomogeneous(in.chain),
		events:     []event.Event{in.ev},
		cfg:        cfg,
		uniformEm:  mat.NewMatrix(m, m),
		uniformCol: mat.NewVector(m),
	}
	for i := range e.uniformEm.Data {
		e.uniformEm.Data[i] = 1 / float64(m)
	}
	for i := range e.uniformCol {
		e.uniformCol[i] = 1 / float64(m)
	}
	return e
}

// plan compiles a bare plan over the given kernel mode; cache may be nil.
func (e *engine) plan(kernel world.KernelMode, cache *certcache.Cache) (*core.Plan, error) {
	cfg := e.cfg
	cfg.Kernel = kernel
	p, err := core.NewPlan(core.SharedMechanism(e.mech), e.tp, e.events, cfg)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		p.EnableCache(cache)
	}
	return p, nil
}

// liveStates exports every live session of the backends, in process:
// what each must still be after a recovery.
func liveStates(ctx context.Context, backends []*backend) (map[string]api.SessionExport, error) {
	out := make(map[string]api.SessionExport)
	for _, b := range backends {
		req := api.ListSessionsRequest{Limit: api.MaxListLimit}
		for {
			page, err := b.srv.ListSessions(req)
			if err != nil {
				return nil, err
			}
			for _, info := range page.Sessions {
				exp, err := b.srv.ExportSession(ctx, info.ID)
				if err != nil {
					return nil, fmt.Errorf("export %s: %w", info.ID, err)
				}
				out[info.ID] = exp
			}
			if page.NextCursor == "" {
				break
			}
			req.Cursor = page.NextCursor
		}
	}
	return out, nil
}

// sampleIndexes spreads k indexes evenly over [0,n).
func sampleIndexes(n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// checkOracle re-runs sampled residents, and the first user of the
// measured phase, through a bare plan compiled with the naive reference
// kernels and requires what the service released — the residents'
// exported tags and fingerprint, the user's replies — to match it
// release for release. firstTags is nil when that user did not finish.
func checkOracle(e *engine, o *ops, states map[string]api.SessionExport, firstTags []api.ReleaseTag) error {
	spec := e.in.spec
	if spec.oracleSamples == 0 {
		return nil
	}
	plan, err := e.plan(world.KernelOracle, nil)
	if err != nil {
		return err
	}
	replay := func(u user) (*core.Framework, error) {
		fw, err := plan.NewSession(core.NewSessionRNG(u.seed))
		if err != nil {
			return nil, err
		}
		_, err = fw.Run(u.traj)
		return fw, err
	}
	sameTags := func(got []api.ReleaseTag, want []core.ReleaseTag) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].AlphaBits != want[i].AlphaBits || got[i].Obs != want[i].Obs {
				return false
			}
		}
		return true
	}
	for _, r := range sampleIndexes(spec.residents, spec.oracleSamples) {
		id := e.in.residentID(r)
		fw, err := replay(e.in.resident(r).user)
		if err != nil {
			return err
		}
		got, live := states[id]
		o.check(live && got.Fingerprint == fw.Fingerprint() && sameTags(got.Tags, fw.Tags()), func() string {
			return fmt.Sprintf("oracle replay of %s: service exported %v (fingerprint %#x), oracle released %v (%#x)",
				id, got.Tags, got.Fingerprint, fw.Tags(), fw.Fingerprint())
		})
	}
	fw, err := replay(e.in.measured(0))
	if err != nil {
		return err
	}
	o.check(sameTags(firstTags, fw.Tags()), func() string {
		return fmt.Sprintf("oracle replay of the first measured user: service released %v, oracle %v", firstTags, fw.Tags())
	})
	return nil
}

// priors returns the adversary priors the realised loss is checked
// under: uniform, four simplex vertices and four seeded interior points.
func priors(m int, seed int64) []mat.Vector {
	out := []mat.Vector{}
	uniform := mat.NewVector(m)
	for i := range uniform {
		uniform[i] = 1 / float64(m)
	}
	out = append(out, uniform)
	for _, s := range []int{0, m / 3, 2 * m / 3, m - 1} {
		v := mat.NewVector(m)
		v[s] = 1
		out = append(out, v)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 4; k++ {
		v := mat.NewVector(m)
		var sum float64
		for i := range v {
			v[i] = rng.ExpFloat64()
			sum += v[i]
		}
		for i := range v {
			v[i] /= sum
		}
		out = append(out, v)
	}
	return out
}

// checkLoss recomputes, from outside the engine, the realised privacy
// loss of sampled residents' committed releases under each prior and
// requires it to stay within ε.
func checkLoss(e *engine, o *ops, states map[string]api.SessionExport) error {
	spec := e.in.spec
	if spec.lossSamples == 0 {
		return nil
	}
	md, err := world.NewModel(e.tp, e.in.ev)
	if err != nil {
		return err
	}
	pis := priors(e.in.g.States(), e.in.seed)
	for _, r := range sampleIndexes(spec.residents, spec.lossSamples) {
		id := e.in.residentID(r)
		st, live := states[id]
		if !live {
			o.check(false, func() string { return "loss check: resident " + id + " is not live" })
			continue
		}
		emissions := make([]mat.Vector, len(st.Tags))
		for t, tg := range st.Tags {
			if tg.AlphaBits == 0 {
				emissions[t] = e.uniformCol
				continue
			}
			em, err := e.mech.Emission(math.Float64frombits(tg.AlphaBits))
			if err != nil {
				return err
			}
			emissions[t] = em.Col(tg.Obs)
		}
		for k, pi := range pis {
			loss, err := world.PrivacyLoss(md, pi, emissions)
			o.check(err == nil && loss <= e.cfg.Epsilon+lossSlack, func() string {
				return fmt.Sprintf("realised loss of %s under prior %d: %g (err %v), epsilon %g", id, k, loss, err, e.cfg.Epsilon)
			})
		}
	}
	return nil
}

// checkRecovered holds every session of a recovered deployment to its
// pre-crash timestamp and fingerprint, and the stores to zero load
// failures.
func checkRecovered(o *ops, cycle int, before, after map[string]api.SessionExport, backends []*backend) {
	for id, want := range before {
		got, ok := after[id]
		o.check(ok && got.T == want.T && got.Fingerprint == want.Fingerprint, func() string {
			return fmt.Sprintf("recovery %d: session %s came back as t=%d fp=%#x (live=%v), was t=%d fp=%#x",
				cycle, id, got.T, got.Fingerprint, ok, want.T, want.Fingerprint)
		})
	}
	o.check(len(after) == len(before), func() string {
		return fmt.Sprintf("recovery %d: %d sessions live, %d before the crash", cycle, len(after), len(before))
	})
	for _, b := range backends {
		st := b.srv.Stats().Store
		o.check(st.LoadFailures == 0 && st.ReplayFailures == 0 && st.CorruptSuffixes == 0, func() string {
			return fmt.Sprintf("recovery %d: %s reports %d load failures, %d replay failures, %d corrupt suffixes",
				cycle, b.name, st.LoadFailures, st.ReplayFailures, st.CorruptSuffixes)
		})
	}
}
