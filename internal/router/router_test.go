package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/ring"
	"priste/internal/rpc"
	"priste/internal/server"
)

var bg = context.Background()

// testServerConfig mirrors the server package's deterministic test
// deployment: small map, no QP deadline, no janitor.
func testServerConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.GridW, cfg.GridH = 6, 6
	cfg.Events = []string{"0-5@2-4"}
	cfg.QPTimeout = 0
	cfg.SessionTTL = -1
	return cfg
}

// fleetMember is one live pristed backend plus the client the router
// reaches it with.
type fleetMember struct {
	name   string
	srv    *server.Server
	client api.Client
}

// newFleet starts n backends. The first is reached over the binary RPC
// protocol, the rest over HTTP — the router must not care.
func newFleet(t *testing.T, n int) []fleetMember {
	t.Helper()
	members := make([]fleetMember, n)
	for i := range members {
		srv, err := server.New(testServerConfig())
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		t.Cleanup(srv.Close)
		name := fmt.Sprintf("backend-%d", i)
		if i == 0 {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			rpcSrv := rpc.NewServer(srv)
			go func() { _ = rpcSrv.Serve(lis) }()
			t.Cleanup(func() { rpcSrv.Close() })
			client, err := rpc.Dial(lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			members[i] = fleetMember{name: name, srv: srv, client: client}
			continue
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		members[i] = fleetMember{name: name, srv: srv, client: server.NewClient(ts.URL, nil)}
	}
	return members
}

// newTestRouter builds a Router over the members with probing disabled
// (tests drive probeAll by hand).
func newTestRouter(t *testing.T, members []fleetMember, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{VirtualNodes: 64, ProbeInterval: -1}
	for _, m := range members {
		cfg.Backends = append(cfg.Backends, Backend{Name: m.name, Client: m.client})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// createN makes n seeded sessions through the router and returns their
// ids in creation order.
func createN(t *testing.T, rt *Router, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%02d", i)
		seed := int64(1000 + i)
		if _, err := rt.CreateSession(api.CreateSessionRequest{ID: ids[i], Seed: &seed}); err != nil {
			t.Fatalf("CreateSession %s: %v", ids[i], err)
		}
	}
	return ids
}

// TestRouterServesEveryCall: every control call of api.Calls is a route
// of the router's HTTP transport, as it is of a pristed's.
func TestRouterServesEveryCall(t *testing.T) {
	rt := newTestRouter(t, newFleet(t, 1), nil)
	mux := rt.routes()
	for _, call := range api.Calls {
		method, path, _ := strings.Cut(call.Route, " ")
		path = strings.Replace(path, "{id}", "x", 1)
		if _, pattern := mux.Handler(httptest.NewRequest(method, path, nil)); pattern != call.Route {
			t.Errorf("%s: %s %s resolves to pattern %q", call.Route, method, path, pattern)
		}
	}
}

// loc is the deterministic location sequence shared with control runs.
func loc(session, step int) int { return (session*7 + step*3) % 36 }

func TestRouterRoutesAcrossFleet(t *testing.T) {
	members := newFleet(t, 3)
	rt := newTestRouter(t, members, nil)
	ids := createN(t, rt, 20)

	// Sessions must actually be sharded: more than one backend holds some.
	holding := 0
	total := 0
	for _, m := range members {
		page, err := m.srv.ListSessions(api.ListSessionsRequest{Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Sessions) > 0 {
			holding++
		}
		total += len(page.Sessions)
	}
	if holding < 2 || total != len(ids) {
		t.Fatalf("fleet holds %d sessions on %d backends, want %d on >=2", total, holding, len(ids))
	}

	for i, id := range ids {
		resp, err := rt.Step(bg, id, loc(i, 0))
		if err != nil || resp.T != 0 {
			t.Fatalf("Step %s: %+v, %v", id, resp, err)
		}
		info, err := rt.GetSession(id)
		if err != nil || info.T != 1 {
			t.Fatalf("GetSession %s = %+v, %v; want T=1", id, info, err)
		}
	}

	// Batch: one step per session, order preserved, all sharded out.
	var batch []api.BatchStepItem
	for i, id := range ids {
		batch = append(batch, api.BatchStepItem{SessionID: id, Loc: loc(i, 1)})
	}
	results := rt.StepBatch(bg, batch)
	if len(results) != len(batch) {
		t.Fatalf("batch returned %d results, want %d", len(results), len(batch))
	}
	for i, r := range results {
		if r.SessionID != ids[i] || r.Error != "" || r.T != 1 {
			t.Fatalf("batch[%d] = %+v, want session %s T=1", i, r, ids[i])
		}
	}

	if err := rt.DeleteSession(ids[0]); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if _, err := rt.GetSession(ids[0]); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("deleted session get: %v, want not_found", err)
	}

	st := rt.Stats()
	if st.Fleet == nil {
		t.Fatal("router stats has no fleet section")
	}
	if st.Sessions.Live != int64(len(ids)-1) {
		t.Fatalf("fleet live = %d, want %d", st.Sessions.Live, len(ids)-1)
	}
	if got := len(st.Fleet.Members); got != 3 {
		t.Fatalf("fleet members = %d, want 3", got)
	}
	var routed int64
	for _, m := range st.Fleet.Members {
		if !m.Healthy || !m.InRing {
			t.Fatalf("member %+v not healthy/in-ring", m)
		}
		routed += m.Routes
	}
	if routed == 0 {
		t.Fatal("no routes counted")
	}
	if h := rt.Health(); h.Status != "ok" || h.Sessions != int64(len(ids)-1) {
		t.Fatalf("health = %+v", h)
	}
}

func TestMergedListPagination(t *testing.T) {
	members := newFleet(t, 3)
	rt := newTestRouter(t, members, nil)
	ids := createN(t, rt, 25)

	var got []string
	req := api.ListSessionsRequest{Limit: 10}
	for {
		page, err := rt.ListSessions(req)
		if err != nil {
			t.Fatalf("ListSessions: %v", err)
		}
		for _, s := range page.Sessions {
			got = append(got, s.ID)
		}
		if page.NextCursor == "" {
			break
		}
		req.Cursor = page.NextCursor
	}
	if len(got) != len(ids) {
		t.Fatalf("paged %d sessions, want %d: %v", len(got), len(ids), got)
	}
	seen := map[string]bool{}
	for i, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %s in merged pages", id)
		}
		seen[id] = true
		if i > 0 && got[i-1] >= id {
			t.Fatalf("merged pages out of order: %s before %s", got[i-1], id)
		}
	}
}

// TestDrainRehomeFingerprint is the heart of the acceptance criteria:
// drain a backend mid-history, keep stepping through the router, and
// require every migrated session's releases to be bit-identical to an
// uninterrupted single-instance control run.
func TestDrainRehomeFingerprint(t *testing.T) {
	members := newFleet(t, 3)
	rt := newTestRouter(t, members, nil)
	ids := createN(t, rt, 8)

	const preSteps, postSteps = 3, 3
	for i, id := range ids {
		for s := 0; s < preSteps; s++ {
			if _, err := rt.Step(bg, id, loc(i, s)); err != nil {
				t.Fatalf("pre step %s/%d: %v", id, s, err)
			}
		}
	}

	// Drain a backend that holds at least one session.
	var victim string
	for _, m := range members {
		page, err := m.srv.ListSessions(api.ListSessionsRequest{Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Sessions) > 0 {
			victim = m.name
			break
		}
	}
	rep, err := rt.Drain(victim)
	if err != nil {
		t.Fatalf("Drain(%s): %v", victim, err)
	}
	if rep.Moved == 0 || rep.Failed != 0 {
		t.Fatalf("drain report = %+v, want moves and no failures", rep)
	}
	for _, m := range members {
		if m.name != victim {
			continue
		}
		page, _ := m.srv.ListSessions(api.ListSessionsRequest{Limit: 100})
		if len(page.Sessions) != 0 {
			t.Fatalf("drained backend still holds %d sessions", len(page.Sessions))
		}
	}

	for i, id := range ids {
		for s := preSteps; s < preSteps+postSteps; s++ {
			if _, err := rt.Step(bg, id, loc(i, s)); err != nil {
				t.Fatalf("post step %s/%d: %v", id, s, err)
			}
		}
	}

	// Control: the same histories on one uninterrupted instance.
	control, err := server.New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	for i, id := range ids {
		seed := int64(1000 + i)
		if _, err := control.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < preSteps+postSteps; s++ {
			if _, err := control.Step(bg, id, loc(i, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		got, err := rt.ExportSession(bg, id)
		if err != nil {
			t.Fatalf("export %s via router: %v", id, err)
		}
		want, err := control.ExportSession(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != want.Fingerprint || got.T != want.T {
			t.Fatalf("session %s diverged after migration: got fp=%x t=%d, control fp=%x t=%d",
				id, got.Fingerprint, got.T, want.Fingerprint, want.T)
		}
	}

	fs := rt.Stats().Fleet
	if fs.MigrationsCompleted != int64(rep.Moved) || fs.MigrationsFailed != 0 {
		t.Fatalf("fleet migration counters = %+v, want completed=%d", fs, rep.Moved)
	}
	if fs.Epoch == 0 {
		t.Fatal("ring epoch did not advance on drain")
	}

	// Undrain pulls the victim's minimal-movement share back.
	rep2, err := rt.Undrain(victim)
	if err != nil {
		t.Fatalf("Undrain: %v", err)
	}
	if rep2.Moved == 0 || rep2.Failed != 0 {
		t.Fatalf("undrain report = %+v, want moves back and no failures", rep2)
	}
	for _, id := range ids {
		if _, err := rt.GetSession(id); err != nil {
			t.Fatalf("session %s lost after undrain: %v", id, err)
		}
	}
}

// TestStepsParkDuringMigration: steps racing a drain must park on the
// per-session migration lock — zero errors, and a history bit-identical
// to an unmigrated control run.
func TestStepsParkDuringMigration(t *testing.T) {
	members := newFleet(t, 2)
	rt := newTestRouter(t, members, nil)
	ids := createN(t, rt, 4)

	const steps = 40
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				if _, err := rt.Step(bg, id, loc(i, s)); err != nil {
					errs[i] = fmt.Errorf("step %d: %w", s, err)
					return
				}
			}
		}(i, id)
	}
	// Drain whichever backend holds sessions first, mid-traffic.
	time.Sleep(5 * time.Millisecond)
	if _, err := rt.Drain(members[0].name); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %s failed mid-migration: %v", ids[i], err)
		}
	}

	control, err := server.New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	for i, id := range ids {
		seed := int64(1000 + i)
		if _, err := control.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			if _, err := control.Step(bg, id, loc(i, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		got, err := rt.ExportSession(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.ExportSession(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != want.Fingerprint || got.T != want.T {
			t.Fatalf("session %s diverged (got fp=%x t=%d, control fp=%x t=%d)",
				id, got.Fingerprint, got.T, want.Fingerprint, want.T)
		}
	}
}

// flakyClient wraps a backend client with a switchable health outcome.
type flakyClient struct {
	api.Client
	down atomic.Bool
}

func (f *flakyClient) Health(ctx context.Context) error {
	if f.down.Load() {
		return fmt.Errorf("flaky: down")
	}
	return f.Client.Health(ctx)
}

func TestHealthEjectionAndReadmission(t *testing.T) {
	members := newFleet(t, 3)
	flaky := &flakyClient{Client: members[1].client}
	rt := newTestRouter(t, members, func(cfg *Config) {
		cfg.FailAfter = 3
		cfg.ReadmitAfter = 2
		for i := range cfg.Backends {
			if cfg.Backends[i].Name == members[1].name {
				cfg.Backends[i].Client = flaky
			}
		}
	})
	ids := createN(t, rt, 10)

	// One failed probe is hysteresis-absorbed.
	flaky.down.Store(true)
	rt.probeAll()
	if b := rt.backends[members[1].name]; !b.healthy.Load() {
		t.Fatal("single failed probe ejected the backend")
	}
	rt.probeAll()
	rt.probeAll()
	b := rt.backends[members[1].name]
	if b.healthy.Load() {
		t.Fatal("backend still healthy after FailAfter failed probes")
	}
	waitFor(t, "ejection from ring", func() bool { return !rt.ringPtr.Load().Has(members[1].name) })
	if rt.epoch.Load() == 0 {
		t.Fatal("epoch did not advance on ejection")
	}

	// Ejection moved no data, so sessions that live on the ejected
	// backend (which is actually still serving) are reached through the
	// previous-ring fallback.
	before := rt.misrouteRetries.Load()
	for i, id := range ids {
		if _, err := rt.Step(bg, id, loc(i, 0)); err != nil {
			t.Fatalf("step %s after ejection: %v", id, err)
		}
	}
	if rt.misrouteRetries.Load() == before {
		t.Fatal("no misroute retries counted — fallback path never used")
	}

	// Recovery: ReadmitAfter clean probes readmit and re-home.
	flaky.down.Store(false)
	rt.probeAll()
	if b.healthy.Load() {
		t.Fatal("single clean probe readmitted the backend")
	}
	rt.probeAll()
	if !b.healthy.Load() {
		t.Fatal("backend not healthy after ReadmitAfter clean probes")
	}
	waitFor(t, "readmission to ring", func() bool { return rt.ringPtr.Load().Has(members[1].name) })
	waitFor(t, "readmission rehome", func() bool {
		rt.rebalanceMu.Lock()
		defer rt.rebalanceMu.Unlock()
		// Under the lock the rehome pass has finished; verify every
		// session is on its current ring owner.
		for i, id := range ids {
			if _, err := rt.Step(bg, id, loc(i, 1)); err != nil {
				t.Fatalf("step %s after readmission: %v", id, err)
			}
		}
		return true
	})
	if got := rt.healthTransitions.Load(); got != 2 {
		t.Fatalf("health transitions = %d, want 2", got)
	}
}

// TestMisrouteFallbackDeterministic pins the fallback path: the current
// ring routes the session to a backend that has never seen it, the
// previous ring to the backend that owns it.
func TestMisrouteFallbackDeterministic(t *testing.T) {
	members := newFleet(t, 2)
	rt := newTestRouter(t, members, nil)

	// Find an id the full ring assigns to backend-0.
	full := rt.ringPtr.Load()
	var id string
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("mis-%03d", i)
		if owner, _ := full.Owner(cand); owner == members[0].name {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no candidate id owned by backend-0")
	}
	// The session actually lives on backend-1 (created out-of-band, as
	// if a ring change moved ownership before its migration landed).
	seed := int64(7)
	if _, err := members[1].srv.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	rt.prevPtr.Store(ring.New(64, members[1].name))

	resp, err := rt.Step(bg, id, 3)
	if err != nil || resp.T != 0 {
		t.Fatalf("misrouted step = %+v, %v; want fallback success", resp, err)
	}
	if got := rt.misrouteRetries.Load(); got != 1 {
		t.Fatalf("misroute retries = %d, want 1", got)
	}
	// Without a prev-ring location the miss is a genuine not_found.
	if _, err := rt.Step(bg, "never-created", 3); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("unknown session err = %v, want not_found", err)
	}
}

// wrongBackendService returns CodeWrongBackend from every session call —
// the shape of a ring-aware backend rejecting a stale route.
type wrongBackendService struct{}

var errMoved = api.Errf(api.CodeWrongBackend, "session moved: re-resolve ownership")

func (wrongBackendService) CreateSession(api.CreateSessionRequest) (api.SessionInfo, error) {
	return api.SessionInfo{}, errMoved
}
func (wrongBackendService) GetSession(string) (api.SessionInfo, error) {
	return api.SessionInfo{}, errMoved
}
func (wrongBackendService) DeleteSession(string) error { return errMoved }
func (wrongBackendService) Step(context.Context, string, int) (api.StepResponse, error) {
	return api.StepResponse{}, errMoved
}
func (wrongBackendService) StepBatch(_ context.Context, steps []api.BatchStepItem) []api.StepResponse {
	out := make([]api.StepResponse, len(steps))
	for i, it := range steps {
		out[i] = api.FailedStep(it.SessionID, errMoved)
	}
	return out
}
func (wrongBackendService) ListSessions(api.ListSessionsRequest) (api.SessionPage, error) {
	return api.SessionPage{}, errMoved
}
func (wrongBackendService) ExportSession(context.Context, string) (api.SessionExport, error) {
	return api.SessionExport{}, errMoved
}
func (wrongBackendService) ImportSession(api.SessionExport) (api.SessionInfo, error) {
	return api.SessionInfo{}, errMoved
}
func (wrongBackendService) Stats() api.Stats   { return api.Stats{} }
func (wrongBackendService) Health() api.Health { return api.Health{Status: "ok"} }

// TestWrongBackendRoundTrip: the misroute code survives both transports
// (HTTP 421 envelope, RPC error byte) and both clients classify the
// reconstructed error as retryable-after-reroute.
func TestWrongBackendRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	server.RegisterAPIRoutes(mux, wrongBackendService{}, nil)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/sessions/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("raw status = %d, want 421", resp.StatusCode)
	}
	httpClient := server.NewClient(ts.URL, nil)
	_, err = httpClient.Step(bg, "x", 0)
	if api.CodeOf(err) != api.CodeWrongBackend || !api.RetryAfterReroute(err) {
		t.Fatalf("http client err = %v (code %s), want retryable wrong_backend", err, api.CodeOf(err))
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rpcSrv := rpc.NewServer(wrongBackendService{})
	go func() { _ = rpcSrv.Serve(lis) }()
	defer rpcSrv.Close()
	rpcClient, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rpcClient.Close()
	_, err = rpcClient.Step(bg, "x", 0)
	if api.CodeOf(err) != api.CodeWrongBackend || !api.RetryAfterReroute(err) {
		t.Fatalf("rpc client err = %v (code %s), want retryable wrong_backend", err, api.CodeOf(err))
	}
}

func TestDrainGuards(t *testing.T) {
	members := newFleet(t, 1)
	rt := newTestRouter(t, members, nil)
	if _, err := rt.Drain("backend-0"); api.CodeOf(err) != api.CodeFailedPrecondition {
		t.Fatalf("draining last backend: %v, want failed_precondition", err)
	}
	if _, err := rt.Drain("nope"); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("draining unknown backend: %v, want not_found", err)
	}
	if _, err := rt.Undrain("nope"); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("undraining unknown backend: %v, want not_found", err)
	}
}

// TestRouterMetricsSurface: the priste_router_* family renders on the
// handler's /metricsz and the fleet admin routes respond.
func TestRouterMetricsSurface(t *testing.T) {
	members := newFleet(t, 2)
	rt := newTestRouter(t, members, nil)
	createN(t, rt, 3)

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 1<<20)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}
	code, body := get("/metricsz")
	if code != http.StatusOK {
		t.Fatalf("/metricsz status %d", code)
	}
	for _, want := range []string{
		"priste_router_routes_total", "priste_router_misroute_retries_total",
		"priste_router_health_transitions_total", "priste_router_backend_healthy",
		"priste_router_migrations_started_total", "priste_router_migrations_completed_total",
		"priste_router_migrations_failed_total", "priste_router_ring_epoch",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing %s", want)
		}
	}
	if code, body = get("/v1/fleet"); code != http.StatusOK || !strings.Contains(body, members[0].name) {
		t.Fatalf("/v1/fleet = %d %q", code, body)
	}
	if code, body = get("/statsz"); code != http.StatusOK || !strings.Contains(body, `"fleet"`) {
		t.Fatalf("/statsz = %d, fleet section missing: %q", code, body)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
}
