package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/store"
	"priste/internal/world"
)

// directFramework builds a core.Framework exactly the way the server
// does for testConfig and the given seed — the reference for the
// same-semantics acceptance check.
func directFramework(t *testing.T, cfg Config, seed int64) *core.Framework {
	t.Helper()
	g, err := grid.New(cfg.GridW, cfg.GridH, cfg.Cell)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.GaussianChain(g, cfg.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	events, err := eventspec.ParseAll(cfg.Events, g.States(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coreCfg := core.DefaultConfig(cfg.Epsilon, cfg.Alpha)
	coreCfg.QPTimeout = cfg.QPTimeout
	fw, err := core.New(lppm.NewPlanarLaplace(g), world.NewHomogeneous(chain), events, coreCfg, core.NewSessionRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestConcurrentSessions steps 32 sessions concurrently (run under
// -race) and checks each session's releases come back in FIFO order
// with consecutive timestamps.
func TestConcurrentSessions(t *testing.T) {
	const (
		sessions = 32
		steps    = 8
	)
	srv := newTestServer(t, testConfig())
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("user-%d", i)
		seed := int64(i + 1)
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		wg.Add(1)
		go func(id string, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			m := srv.cfg.GridW * srv.cfg.GridH
			// Enqueue all steps up front, then await: completion order
			// must equal enqueue order.
			dones := make([]<-chan api.StepOutcome, steps)
			for k := range dones {
				done, err := srv.StepAsync(context.Background(), id, rng.Intn(m))
				if err != nil {
					errc <- fmt.Errorf("%s step %d: %w", id, k, err)
					return
				}
				dones[k] = done
			}
			for k, done := range dones {
				out := <-done
				if out.Err != nil {
					errc <- fmt.Errorf("%s step %d: %w", id, k, out.Err)
					return
				}
				if out.Resp.T != k {
					errc <- fmt.Errorf("%s step %d released T=%d (out of order)", id, k, out.Resp.T)
					return
				}
			}
		}(id, seed)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := srv.metrics.Snapshot()
	if st.Steps.Served != sessions*steps {
		t.Fatalf("steps served = %d, want %d", st.Steps.Served, sessions*steps)
	}
	if st.Sessions.Live != sessions {
		t.Fatalf("live = %d, want %d", st.Sessions.Live, sessions)
	}
	if st.Latency.Samples == 0 || st.Latency.P99Micros < st.Latency.P50Micros {
		t.Fatalf("bad latency stats: %+v", st.Latency)
	}
}

// TestBatchSemantics checks the batch endpoint against direct
// core.Framework.Step calls: same seed, same trajectory, identical
// StepResults — and that in-batch order is preserved per session even
// when a session appears several times in one batch.
func TestBatchSemantics(t *testing.T) {
	cfg := testConfig()
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, nil)
	ctx := context.Background()

	const T = 6
	m := cfg.GridW * cfg.GridH
	users := []string{"alice", "bob"}
	trajs := make(map[string][]int)
	for i, u := range users {
		seed := int64(100 + i)
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: u, Seed: &seed}); err != nil {
			t.Fatalf("create %s: %v", u, err)
		}
		pathRNG := rand.New(rand.NewSource(seed * 7))
		traj := make([]int, T)
		for k := range traj {
			traj[k] = pathRNG.Intn(m)
		}
		trajs[u] = traj
	}

	// Interleave both users' trajectories into batches of 4: two
	// consecutive steps per user per batch.
	var all []api.StepResponse
	for k := 0; k < T; k += 2 {
		var batch []api.BatchStepItem
		for _, u := range users {
			batch = append(batch,
				api.BatchStepItem{SessionID: u, Loc: trajs[u][k]},
				api.BatchStepItem{SessionID: u, Loc: trajs[u][k+1]})
		}
		results, err := client.StepBatch(ctx, batch)
		if err != nil {
			t.Fatalf("StepBatch: %v", err)
		}
		if len(results) != len(batch) {
			t.Fatalf("got %d results for %d items", len(results), len(batch))
		}
		all = append(all, results...)
	}

	// Split the responses back per user; order within a user must be
	// FIFO (T = 0,1,2,...).
	perUser := make(map[string][]api.StepResponse)
	for _, r := range all {
		if r.Error != "" {
			t.Fatalf("batch item failed: %+v", r)
		}
		perUser[r.SessionID] = append(perUser[r.SessionID], r)
	}
	for i, u := range users {
		got := perUser[u]
		if len(got) != T {
			t.Fatalf("%s: %d results, want %d", u, len(got), T)
		}
		fw := directFramework(t, cfg, int64(100+i))
		want, err := fw.Run(trajs[u])
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.T != w.T || g.Obs != w.Obs || g.Alpha != w.Alpha ||
				g.Attempts != w.Attempts || g.Uniform != w.Uniform ||
				g.ConservativeRejections != w.ConservativeRejections {
				t.Errorf("%s step %d: server %+v != direct %+v", u, k, g, w)
			}
		}
	}
}

// TestHTTPRoundTrip exercises the full JSON API through httptest.
func TestHTTPRoundTrip(t *testing.T) {
	cfg := testConfig()
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, nil)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	seed := int64(5)
	info, err := client.CreateSession(ctx, api.CreateSessionRequest{
		Seed:    &seed,
		Epsilon: 0.8,
		Events:  []string{"0-3@1-2"},
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.ID == "" || info.T != 0 || info.Epsilon != 0.8 {
		t.Fatalf("create info = %+v", info)
	}
	if info.Mechanism != MechanismLaplace {
		t.Fatalf("mechanism = %q, want default %q", info.Mechanism, MechanismLaplace)
	}

	for k := 0; k < 3; k++ {
		res, err := client.Step(ctx, info.ID, k)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if res.T != k {
			t.Fatalf("step %d: T = %d", k, res.T)
		}
		if res.Obs < 0 || res.Obs >= cfg.GridW*cfg.GridH {
			t.Fatalf("step %d: released %d outside map", k, res.Obs)
		}
	}

	got, err := client.Session(ctx, info.ID)
	if err != nil || got.T != 3 {
		t.Fatalf("session info = %+v, %v; want T=3", got, err)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if st.Steps.Served != 3 || st.Sessions.Created != 1 || st.Sessions.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Steps.SuppressionRate < 0 || st.Steps.SuppressionRate > 1 {
		t.Fatalf("suppression_rate = %g", st.Steps.SuppressionRate)
	}

	if err := client.DeleteSession(ctx, info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// The typed client reconstructs the canonical error, so errors.Is
	// matches the service sentinels across the wire.
	if _, err := client.Step(ctx, info.ID, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after delete: %v, want ErrNotFound", err)
	}
	if _, err := client.Session(ctx, info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
}

// TestHTTPErrors covers the API's failure envelope.
func TestHTTPErrors(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, nil)
	ctx := context.Background()

	// Bad event spec.
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{Events: []string{"nope"}}); api.CodeOf(err) != api.CodeInvalidArgument {
		t.Fatalf("bad event spec: %v, want invalid_argument", err)
	}
	// Bad mechanism.
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{Mechanism: "rot13"}); api.CodeOf(err) != api.CodeInvalidArgument {
		t.Fatalf("bad mechanism: %v, want invalid_argument", err)
	}
	// Duplicate id.
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "dup"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "dup"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate id: %v, want ErrSessionExists", err)
	}
	// Out-of-range location is a per-request 400; the session survives.
	if _, err := client.Step(ctx, "dup", 9999); api.CodeOf(err) != api.CodeInvalidArgument {
		t.Fatalf("bad loc: %v, want invalid_argument", err)
	}
	if _, err := client.Step(ctx, "dup", 0); err != nil {
		t.Fatalf("step after bad loc: %v", err)
	}
	// Batch reports unknown sessions inline.
	results, err := client.StepBatch(ctx, []api.BatchStepItem{
		{SessionID: "dup", Loc: 1},
		{SessionID: "ghost", Loc: 1},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if results[0].Error != "" {
		t.Fatalf("batch item 0 failed: %+v", results[0])
	}
	if results[1].Code != api.CodeNotFound {
		t.Fatalf("batch item 1 = %+v, want code not_found", results[1])
	}
}

// TestOversizeEventsRejected: a client-supplied event set with a window
// past the horizon bound, or with too many events, is refused with
// invalid_argument on create and on import, before any world model is
// built for it (an unbounded window would ask for gigabytes).
func TestOversizeEventsRejected(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, nil)
	tooMany := make([]string, maxSessionEvents+1)
	for i := range tooMany {
		tooMany[i] = "0-0@0-1"
	}
	for name, events := range map[string][]string{
		"huge window":  {"0-0@0-100000000"},
		"past horizon": {fmt.Sprintf("0-0@0-%d", maxEventHorizon)},
		"too many":     tooMany,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "big", Events: events})
		if api.CodeOf(err) != api.CodeInvalidArgument {
			t.Errorf("%s: create: %v, want invalid_argument", name, err)
		}
		_, err = client.ImportSession(ctx, api.SessionExport{
			Version: api.V1, SessionMeta: store.SessionMeta{ID: "big", World: srv.worldTag, Events: events},
		})
		if api.CodeOf(err) != api.CodeInvalidArgument {
			t.Errorf("%s: import: %v, want invalid_argument", name, err)
		}
		cancel()
	}
	if n := srv.mgr.Len(); n != 0 {
		t.Fatalf("live = %d after rejected creates and imports, want 0", n)
	}
	// The largest window the bound admits still creates.
	if _, err := client.CreateSession(context.Background(), api.CreateSessionRequest{
		Events: []string{fmt.Sprintf("0-0@0-%d", maxEventHorizon-1)},
	}); err != nil {
		t.Fatalf("window ending at %d: %v", maxEventHorizon-1, err)
	}
}

// TestCertCacheSizeBounded: a cert cache beyond what the table's int32
// links address is a configuration error, not a panic at start-up.
func TestCertCacheSizeBounded(t *testing.T) {
	size := certcache.MaxCapacity
	if size == math.MaxInt {
		t.Skip("every int is a valid capacity here")
	}
	cfg := testConfig()
	cfg.CertCacheSize = size + 1
	if srv, err := New(cfg); err == nil {
		srv.Close()
		t.Fatalf("New accepted a cert cache of %d entries", size+1)
	}
}

// TestDeltaMechanismSession runs a session on the δ-location-set
// mechanism end to end.
func TestDeltaMechanismSession(t *testing.T) {
	cfg := testConfig()
	srv := newTestServer(t, cfg)
	seed := int64(3)
	delta := 0.05
	sess, err := srv.CreateSession(api.CreateSessionRequest{
		ID: "d", Seed: &seed, Mechanism: MechanismDelta, Delta: &delta,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if sess.Mechanism != MechanismDelta {
		t.Fatalf("mechanism = %q", sess.Mechanism)
	}
	for k := 0; k < 3; k++ {
		if _, err := srv.Step(bg, "d", k); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
}

// TestServerClose verifies shutdown fails pending work cleanly and is
// idempotent.
func TestServerClose(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	done, err := srv.StepAsync(context.Background(), "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	out := <-done
	if !errors.Is(out.Err, ErrSessionClosed) {
		t.Fatalf("pending step after Close: %v, want ErrSessionClosed", out.Err)
	}
}
