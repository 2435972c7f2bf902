package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/oracle"
	"priste/internal/world"
)

// The service's differential harness: the sessions of servedScenarios,
// hosted side by side on one server, must release what the engine's
// reference releases for them (world.KernelOracle, no cache, one fresh
// session each) through every way of reaching the service — in
// process, HTTP, RPC unary and stream — and across a graceful restart
// and a crash. TestVariantsMatchReference runs the reference and the
// HTTP variant; each Test after it is one more variant.

// servedScenarios share the test world of testConfig.
var servedScenarios = []string{"served", "served-delta"}

// served is one session of servedScenarios: its id on the server, its
// scenario and seed, and the reference ledger it must reproduce.
type served struct {
	id   string
	sc   oracle.Scenario
	seed int64
	want oracle.Ledger
}

func (s served) request() api.CreateSessionRequest {
	req := api.CreateSessionRequest{ID: s.id, Seed: &s.seed, Epsilon: s.sc.Epsilon, Alpha: s.sc.Alpha, Mechanism: MechanismLaplace, Events: s.sc.Events}
	if s.sc.Delta > 0 {
		req.Mechanism, req.Delta = MechanismDelta, &s.sc.Delta
	}
	return req
}

// servedRefs holds servedSessions' result, made once per process.
var servedRefs struct {
	sync.Mutex
	sessions []served
}

// servedSessions returns every served session with its reference, run
// once per process. Callers may change the copy they get but not the
// ledgers it holds.
func servedSessions(t *testing.T) []served {
	t.Helper()
	servedRefs.Lock()
	defer servedRefs.Unlock()
	if servedRefs.sessions != nil {
		return append([]served(nil), servedRefs.sessions...)
	}
	cfg := testConfig()
	var out []served
	for _, name := range servedScenarios {
		sc := oracle.Lookup(name)
		if sc.W != cfg.GridW || sc.H != cfg.GridH || sc.Sigma != cfg.Sigma || sc.Stay != 0 || sc.Varying {
			t.Fatalf("scenario %s is not testConfig's world", name)
		}
		coreCfg := core.DefaultConfig(sc.Epsilon, sc.Alpha)
		coreCfg.QPTimeout, coreCfg.Kernel = 0, world.KernelOracle
		plan, err := core.NewPlan(sc.Mechanism(t), sc.World(t), sc.ParseEvents(t), coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range sc.Seeds {
			fw, err := plan.NewSession(core.NewSessionRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			var steps []oracle.Step
			for _, loc := range sc.Walk(seed) {
				r, err := fw.Step(loc)
				if err != nil {
					t.Fatal(err)
				}
				steps = append(steps, oracle.Step{T: r.T, Obs: r.Obs, AlphaBits: math.Float64bits(r.Alpha), Attempts: r.Attempts,
					Conservative: r.ConservativeRejections, Uniform: r.Uniform})
			}
			out = append(out, served{id: fmt.Sprintf("%s-%d", name, seed), sc: sc, seed: seed, want: ledger(steps, fw.Tags(), fw.Fingerprint())})
		}
	}
	servedRefs.sessions = out
	return append([]served(nil), out...)
}

// stepper is what a variant drives sessions through: the server itself
// or a client of it.
type stepper interface {
	Step(ctx context.Context, id string, loc int) (api.StepResponse, error)
	ExportSession(ctx context.Context, id string) (api.SessionExport, error)
}

// createAll opens every session through create.
func createAll(t *testing.T, sessions []served, create func(api.CreateSessionRequest) (api.SessionInfo, error)) {
	t.Helper()
	for _, s := range sessions {
		if _, err := create(s.request()); err != nil {
			t.Fatalf("create %s: %v", s.id, err)
		}
	}
}

// stepRange steps every session through timestamps [from, to) of its
// walk, round robin, appending each response to resps[i].
func stepRange(t *testing.T, st stepper, sessions []served, from, to int, resps [][]api.StepResponse) [][]api.StepResponse {
	t.Helper()
	if resps == nil {
		resps = make([][]api.StepResponse, len(sessions))
	}
	for k := from; k < to; k++ {
		for i, s := range sessions {
			r, err := st.Step(bg, s.id, s.sc.Walk(s.seed)[k])
			if err != nil {
				t.Fatalf("%s step %d: %v", s.id, k, err)
			}
			resps[i] = append(resps[i], r)
		}
	}
	return resps
}

// stepsOf is the responses as a ledger records them, fingerprints aside.
func stepsOf(resps []api.StepResponse) []oracle.Step {
	out := make([]oracle.Step, len(resps))
	for k, r := range resps {
		out[k] = oracle.Step{T: r.T, Obs: r.Obs, AlphaBits: math.Float64bits(r.Alpha), Attempts: r.Attempts,
			Conservative: r.ConservativeRejections, Uniform: r.Uniform}
	}
	return out
}

// ledger assembles a session's ledger from its steps and its tag log. A
// step response carries no fingerprint: each step's folds the tags up to
// it, and the last must be the session's own.
func ledger(steps []oracle.Step, tags []core.ReleaseTag, fp uint64) oracle.Ledger {
	l := oracle.Ledger{Steps: steps, Fingerprint: fp}
	acc := world.FingerprintSeed
	for k, tag := range tags {
		l.Tags = append(l.Tags, oracle.Tag(tag))
		if acc = world.FingerprintFold(acc, tag.AlphaBits, tag.Obs); k < len(steps) {
			steps[k].Fingerprint = acc
		}
	}
	return l
}

// matchServed requires each session's ledger through st — its step
// responses and its export — to be its reference.
func matchServed(t *testing.T, st stepper, sessions []served, resps [][]api.StepResponse) {
	t.Helper()
	for i, s := range sessions {
		exp, err := st.ExportSession(bg, s.id)
		if err != nil {
			t.Fatal(err)
		}
		if d := ledger(stepsOf(resps[i]), exp.Tags, exp.Fingerprint).Diff(s.want); d != "" {
			t.Errorf("%s: %s", s.id, d)
		}
	}
}

// TestVariantsMatchReference runs the reference of every served session,
// holds it to itself, and serves the sessions over HTTP.
func TestVariantsMatchReference(t *testing.T) {
	sessions := servedSessions(t)
	for _, s := range sessions {
		if err := s.want.Consistent(); err != nil {
			t.Fatalf("%s reference: %v", s.id, err)
		}
	}
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, nil)
	createAll(t, sessions, func(req api.CreateSessionRequest) (api.SessionInfo, error) { return client.CreateSession(bg, req) })
	matchServed(t, client, sessions, stepRange(t, client, sessions, 0, sessions[0].sc.Steps, nil))
}

// TestServerKernelEquivalence: in process, on the served world, whose
// commits run over the chain's Kronecker factors.
func TestServerKernelEquivalence(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		sessions := servedSessions(t)
		srv := newTestServer(t, testConfig())
		createAll(t, sessions, srv.CreateSession)
		matchServed(t, srv, sessions, stepRange(t, srv, sessions, 0, sessions[0].sc.Steps, nil))
		if p := srv.Stats().Plans; p.FactoredKernels == 0 {
			t.Fatalf("plans %+v: not the path this world selects", p)
		}
	})
}

// TestStreamUnaryEquivalence: over RPC, each session fed step by step
// through the unary call, and a twin fed the same walk through a step
// stream, whose responses must equal the unary ones field for field
// (CheckMicros, a wall-clock reading, aside). Streaming changes the
// transport, never the certified output.
func TestStreamUnaryEquivalence(t *testing.T) {
	onRPC(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		sessions := servedSessions(t)
		createAll(t, sessions, func(req api.CreateSessionRequest) (api.SessionInfo, error) { return client.CreateSession(bg, req) })
		unary := stepRange(t, client, sessions, 0, sessions[0].sc.Steps, nil)
		matchServed(t, client, sessions, unary)

		twins := servedSessions(t)
		streamed := make([][]api.StepResponse, len(twins))
		for i := range twins {
			twins[i].id += "-streamed"
			streamed[i] = streamWalk(t, client, twins[i])
			for _, rs := range [][]api.StepResponse{unary[i], streamed[i]} {
				for k := range rs {
					rs[k].CheckMicros = 0
				}
			}
			if !reflect.DeepEqual(unary[i], streamed[i]) {
				t.Fatalf("%s: streamed releases differ from unary releases:\nunary:    %+v\nstreamed: %+v", twins[i].id, unary[i], streamed[i])
			}
		}
		matchServed(t, client, twins, streamed)
	})
}

// streamWalk creates s and feeds its whole walk through a step stream
// with a window of 8, sending and receiving concurrently.
func streamWalk(t *testing.T, client api.Client, s served) []api.StepResponse {
	t.Helper()
	if _, err := client.CreateSession(bg, s.request()); err != nil {
		t.Fatal(err)
	}
	st := openStream(t, client, s.id, 8)
	walk := s.sc.Walk(s.seed)
	sendErr := make(chan error, 1)
	go func() {
		for _, loc := range walk {
			if err := st.Send(loc); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- st.CloseSend()
	}()
	var out []api.StepResponse
	for {
		resp, err := st.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("%s: streamed Recv: %v", s.id, err)
		}
		out = append(out, resp)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("%s: streamed send: %v", s.id, err)
	}
	return out
}

// TestRestartEquivalence: the sessions step halfway on a durable server,
// which shuts down gracefully, and finish on a fresh server over the
// same store, which must have rehydrated every one of them.
func TestRestartEquivalence(t *testing.T) { restart(t, true) }

// TestCrashRecovery: as TestRestartEquivalence, but the first server is
// abandoned without Shutdown and never snapshots, so recovery replays
// the write-ahead log alone (the in-process equivalent of a crash; the
// CI smoke test covers a real kill -9).
func TestCrashRecovery(t *testing.T) { restart(t, false) }

func restart(t *testing.T, graceful bool) {
	sessions := servedSessions(t)
	steps := sessions[0].sc.Steps
	dir := t.TempDir()
	cfgA := durableConfig(t, dir)
	if !graceful {
		cfgA.SnapshotEvery = -1
	}
	srvA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	createAll(t, sessions, srvA.CreateSession)
	resps := stepRange(t, srvA, sessions, 0, steps/2, nil)
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srvA.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	} else {
		srvA.Close()
	}

	srvB := newTestServer(t, durableConfig(t, dir))
	if st := srvB.Stats(); st.Store.Replayed != int64(len(sessions)) || st.Store.ReplayFailures != 0 {
		t.Fatalf("replayed = %d (failures %d), want %d", st.Store.Replayed, st.Store.ReplayFailures, len(sessions))
	}
	for _, s := range sessions {
		info, err := srvB.GetSession(s.id)
		if err != nil {
			t.Fatalf("rehydrated %s: %v", s.id, err)
		}
		if want := s.request().Mechanism; info.T != steps/2 || info.Mechanism != want {
			t.Fatalf("rehydrated %s at T=%d with mechanism %q, want %d and %q", s.id, info.T, info.Mechanism, steps/2, want)
		}
	}
	matchServed(t, srvB, sessions, stepRange(t, srvB, sessions, steps/2, steps, resps))
}
