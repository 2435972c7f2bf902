package server

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/rpc"
	"priste/internal/store"
)

// forEachTransport runs fn once per transport, each time against a
// fresh server of its own — the conformance harness behind the client
// suite: every test written against api.Client runs identically over
// HTTP/JSON and over the binary RPC protocol.
func forEachTransport(t *testing.T, mkcfg func(t *testing.T) Config, fn func(t *testing.T, srv *Server, client api.Client)) {
	t.Helper()
	t.Run("http", func(t *testing.T) {
		srv := newTestServer(t, mkcfg(t))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		fn(t, srv, NewClient(ts.URL, nil))
	})
	t.Run("rpc", func(t *testing.T) {
		srv := newTestServer(t, mkcfg(t))
		_, client := serveRPC(t, srv)
		fn(t, srv, client)
	})
}

// serveRPC starts an RPC listener over srv and returns the server and a
// connected client.
func serveRPC(t *testing.T, srv *Server) (*rpc.Server, *rpc.Client) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rpcSrv := rpc.NewServer(srv)
	rpcSrv.Observe = srv.ObserveRPC
	rpcSrv.ObserveStep = srv.ObserveRPCStep
	rpcSrv.OnStreamOpen = srv.ObserveStreamOpen
	rpcSrv.OnStreamClose = srv.ObserveStreamClose
	rpcSrv.ObserveStreamWindow = srv.ObserveStreamWindow
	rpcSrv.ObserveStreamAcks = srv.ObserveStreamAcks
	go func() { _ = rpcSrv.Serve(lis) }()
	t.Cleanup(func() { rpcSrv.Close() })
	client, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return rpcSrv, client
}

func plainConfig(t *testing.T) Config { return testConfig() }

func wantCode(t *testing.T, err error, code api.Code, label string) {
	t.Helper()
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("%s: err = %v, want *api.Error %s", label, err, code)
	}
	if apiErr.Code != code {
		t.Fatalf("%s: code = %s (%s), want %s", label, apiErr.Code, apiErr.Message, code)
	}
	if apiErr.Message == "" {
		t.Fatalf("%s: error carried no message", label)
	}
}

// TestErrorCodeRoundTrip is the error-mapping conformance table: every
// canonical failure of the session layer must round-trip through both
// transports to the same typed client error — same code, same sentinel
// under errors.Is, same HTTP status for the code (404/409/410/429/503,
// plus 412 for cross-world imports).
func TestErrorCodeRoundTrip(t *testing.T) {
	cases := []struct {
		name       string
		code       api.Code
		httpStatus int
		sentinel   error
		// trigger provokes the failure and returns the client error.
		trigger func(t *testing.T, srv *Server, client api.Client) error
	}{
		{
			name: "unknown session", code: api.CodeNotFound, httpStatus: 404, sentinel: ErrNotFound,
			trigger: func(t *testing.T, srv *Server, client api.Client) error {
				_, err := client.Step(context.Background(), "ghost", 0)
				return err
			},
		},
		{
			name: "duplicate create", code: api.CodeAlreadyExists, httpStatus: 409, sentinel: ErrSessionExists,
			trigger: func(t *testing.T, srv *Server, client api.Client) error {
				ctx := context.Background()
				if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "dup"}); err != nil {
					t.Fatal(err)
				}
				_, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "dup"})
				return err
			},
		},
		{
			name: "deleted mid-flight", code: api.CodeSessionClosed, httpStatus: 410, sentinel: ErrSessionClosed,
			trigger: func(t *testing.T, srv *Server, client api.Client) error {
				ctx := context.Background()
				if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "gone"}); err != nil {
					t.Fatal(err)
				}
				// No workers drain the queue, so the step hangs until the
				// delete fails it.
				stepErr := make(chan error, 1)
				go func() {
					_, err := client.Step(ctx, "gone", 0)
					stepErr <- err
				}()
				sess, _ := srv.mgr.Get("gone")
				waitFor(t, func() bool { return sess.queued() == 1 })
				if err := client.DeleteSession(ctx, "gone"); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-stepErr:
					return err
				case <-time.After(5 * time.Second):
					t.Fatal("pending step never resolved after delete")
					return nil
				}
			},
		},
		{
			name: "queue full", code: api.CodeResourceExhausted, httpStatus: 429, sentinel: ErrQueueFull,
			trigger: func(t *testing.T, srv *Server, client api.Client) error {
				ctx := context.Background()
				if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "busy"}); err != nil {
					t.Fatal(err)
				}
				// Fill the 1-deep queue with a hanging step, then overflow.
				go func() { _, _ = client.Step(ctx, "busy", 0) }()
				sess, _ := srv.mgr.Get("busy")
				waitFor(t, func() bool { return sess.queued() == 1 })
				_, err := client.Step(ctx, "busy", 0)
				// Release the hanging step (nothing ever drains it) so the
				// harness can close its transport.
				if derr := client.DeleteSession(ctx, "busy"); derr != nil {
					t.Fatal(derr)
				}
				return err
			},
		},
		{
			name: "cross-world import", code: api.CodeFailedPrecondition, httpStatus: 412, sentinel: ErrWorldMismatch,
			trigger: func(t *testing.T, srv *Server, client api.Client) error {
				_, err := client.ImportSession(context.Background(), api.SessionExport{
					Version:     api.V1,
					SessionMeta: store.SessionMeta{ID: "alien", World: "grid=99x99;cell=1;sigma=1", Events: []string{"0-5@2-4"}},
				})
				return err
			},
		},
		{
			name: "draining", code: api.CodeUnavailable, httpStatus: 503, sentinel: ErrDraining,
			trigger: func(t *testing.T, srv *Server, client api.Client) error {
				sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Shutdown(sctx); err != nil {
					t.Fatal(err)
				}
				_, err := client.CreateSession(context.Background(), api.CreateSessionRequest{ID: "late"})
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEachTransport(t, func(t *testing.T) Config {
				cfg := testConfig()
				cfg.Workers = -1 // nothing drains: queues fill and steps hang
				cfg.QueueDepth = 1
				return cfg
			}, func(t *testing.T, srv *Server, client api.Client) {
				err := tc.trigger(t, srv, client)
				wantCode(t, err, tc.code, tc.name)
				if !errors.Is(err, tc.sentinel) {
					t.Fatalf("%s: %v does not match sentinel %v", tc.name, err, tc.sentinel)
				}
				if got := tc.code.HTTPStatus(); got != tc.httpStatus {
					t.Fatalf("%s: code %s maps to HTTP %d, want %d", tc.name, tc.code, got, tc.httpStatus)
				}
			})
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientBatchStepping drives the batch path through the typed
// client on both transports: per-session FIFO order, inline per-item
// failures, and agreement with the single-step endpoint. (Over RPC the
// batch is pipelined step frames on one connection; semantics must be
// identical to the HTTP batch endpoint.)
func TestClientBatchStepping(t *testing.T) {
	forEachTransport(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		ctx := context.Background()
		seedA, seedB := int64(7), int64(8)
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "a", Seed: &seedA}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "b", Seed: &seedB}); err != nil {
			t.Fatal(err)
		}

		// Two steps per session in one batch, plus a poisoned item.
		results, err := client.StepBatch(ctx, []api.BatchStepItem{
			{SessionID: "a", Loc: 1},
			{SessionID: "b", Loc: 2},
			{SessionID: "ghost", Loc: 3},
			{SessionID: "a", Loc: 4},
			{SessionID: "b", Loc: 5},
		})
		if err != nil {
			t.Fatalf("StepBatch: %v", err)
		}
		if len(results) != 5 {
			t.Fatalf("%d results, want 5", len(results))
		}
		if results[2].Code != api.CodeNotFound || results[2].Error == "" {
			t.Fatalf("poisoned item = %+v, want inline not_found", results[2])
		}
		// FIFO per session: a gets T 0,1; b gets T 0,1; ids echo back.
		for _, check := range []struct {
			idx  int
			id   string
			want int
		}{{0, "a", 0}, {1, "b", 0}, {3, "a", 1}, {4, "b", 1}} {
			r := results[check.idx]
			if r.Error != "" || r.SessionID != check.id || r.T != check.want {
				t.Fatalf("item %d = %+v, want session %s T=%d", check.idx, r, check.id, check.want)
			}
		}

		// The batch advanced both sessions: the next single step is T=2.
		res, err := client.Step(ctx, "a", 0)
		if err != nil || res.T != 2 {
			t.Fatalf("single step after batch = %+v, %v; want T=2", res, err)
		}

		// Session info and stats agree through the client.
		info, err := client.Session(ctx, "a")
		if err != nil || info.T != 3 {
			t.Fatalf("session info = %+v, %v; want T=3", info, err)
		}
		st, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps.Served != 5 || st.Sessions.Live != 2 {
			t.Fatalf("stats = %+v, want 5 served / 2 live", st.Steps)
		}
		if st.Store.Enabled {
			t.Fatal("Null-store server reports store enabled")
		}
		if err := client.Health(ctx); err != nil {
			t.Fatalf("health: %v", err)
		}
	})
}

// TestClientDrainingStatus: a draining server surfaces unavailable
// through the client for both creates and steps, on both transports.
func TestClientDrainingStatus(t *testing.T) {
	forEachTransport(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		ctx := context.Background()
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "u"}); err != nil {
			t.Fatal(err)
		}
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		_, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "v"})
		wantCode(t, err, api.CodeUnavailable, "create while draining")
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("create while draining: %v, want ErrDraining", err)
		}
		_, err = client.Step(ctx, "u", 0)
		wantCode(t, err, api.CodeUnavailable, "step while draining")
	})
}

// TestClientListSessions pages through the registry with limit/cursor
// on both transports: id order, no duplicates, no gaps, clean final
// page.
func TestClientListSessions(t *testing.T) {
	forEachTransport(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		ctx := context.Background()
		want := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6"}
		for _, id := range want {
			if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: id}); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		cursor := ""
		pages := 0
		for {
			page, err := client.ListSessions(ctx, api.ListSessionsRequest{Limit: 3, Cursor: cursor})
			if err != nil {
				t.Fatalf("list page %d: %v", pages, err)
			}
			pages++
			for _, info := range page.Sessions {
				got = append(got, info.ID)
			}
			if page.NextCursor == "" {
				break
			}
			cursor = page.NextCursor
			if pages > 10 {
				t.Fatal("cursor never terminated")
			}
		}
		if len(got) != len(want) {
			t.Fatalf("listed %d sessions %v, want %d", len(got), got, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("listing %v out of order, want %v", got, want)
			}
		}
		if pages != 3 {
			t.Fatalf("%d pages for 7 sessions at limit 3, want 3", pages)
		}
		// Bad limits are invalid_argument.
		if _, err := client.ListSessions(ctx, api.ListSessionsRequest{Limit: -1}); api.CodeOf(err) != api.CodeInvalidArgument {
			t.Fatalf("negative limit: %v", err)
		}
	})
}

// TestClientMigration is the acceptance check for session migration: a
// mid-history session exported from one pristed instance and imported
// into a fresh one must continue its release sequence seed-for-seed
// identically to an unmigrated run — on both transports.
func TestClientMigration(t *testing.T) {
	const pre, post = 5, 5
	seed := int64(41)
	traj := func(k int) int { return (k * 11) % 36 }

	// Unmigrated reference run.
	ref := newTestServer(t, testConfig())
	if _, err := ref.CreateSession(api.CreateSessionRequest{ID: "mig", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	var want []api.StepResponse
	for k := 0; k < pre+post; k++ {
		res, err := ref.Step(bg, "mig", traj(k))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	forEachTransport(t, plainConfig, func(t *testing.T, srvA *Server, clientA api.Client) {
		ctx := context.Background()
		if _, err := clientA.CreateSession(ctx, api.CreateSessionRequest{ID: "mig", Seed: &seed}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < pre; k++ {
			res, err := clientA.Step(ctx, "mig", traj(k))
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs != want[k].Obs || res.Alpha != want[k].Alpha {
				t.Fatalf("pre-migration step %d diverged: %+v vs %+v", k, res, want[k])
			}
		}

		exp, err := clientA.ExportSession(ctx, "mig")
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if exp.T != pre || len(exp.Tags) != pre || exp.Version != api.V1 || exp.Seed != seed {
			t.Fatalf("export = T%d/%d tags/v%d", exp.T, len(exp.Tags), exp.Version)
		}
		// Migration: delete on the source, import on the target.
		if err := clientA.DeleteSession(ctx, "mig"); err != nil {
			t.Fatal(err)
		}

		srvB := newTestServer(t, testConfig())
		tsB := httptest.NewServer(srvB.Handler())
		t.Cleanup(tsB.Close)
		clientB := NewClient(tsB.URL, nil)
		info, err := clientB.ImportSession(ctx, exp)
		if err != nil {
			t.Fatalf("import: %v", err)
		}
		if info.T != pre || info.ID != "mig" {
			t.Fatalf("imported info = %+v, want T=%d", info, pre)
		}
		// A second import of the same id must conflict.
		if _, err := clientB.ImportSession(ctx, exp); !errors.Is(err, ErrSessionExists) {
			t.Fatalf("re-import: %v, want ErrSessionExists", err)
		}
		// The continued sequence is seed-for-seed the unmigrated run's.
		for k := pre; k < pre+post; k++ {
			res, err := clientB.Step(ctx, "mig", traj(k))
			if err != nil {
				t.Fatal(err)
			}
			w := want[k]
			if res.T != w.T || res.Obs != w.Obs || res.Alpha != w.Alpha ||
				res.Attempts != w.Attempts || res.Uniform != w.Uniform {
				t.Fatalf("post-migration step %d: got %+v, want %+v", k, res, w)
			}
		}
		// A tampered history must be refused by the fingerprint chain.
		bad := exp
		bad.ID = "tampered"
		bad.Tags = append([]api.ReleaseTag(nil), exp.Tags...)
		bad.Tags[0].Obs = (bad.Tags[0].Obs + 1) % 36
		if _, err := clientB.ImportSession(ctx, bad); api.CodeOf(err) != api.CodeFailedPrecondition {
			t.Fatalf("tampered import: %v, want failed_precondition", err)
		}
	})
}

// TestTransportStats: requests served over each transport land in their
// own /statsz section.
func TestTransportStats(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	httpClient := NewClient(ts.URL, nil)
	_, rpcClient := serveRPC(t, srv)
	ctx := context.Background()

	if _, err := httpClient.CreateSession(ctx, api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := rpcClient.Step(ctx, "u", k); err != nil {
			t.Fatalf("rpc step %d: %v", k, err)
		}
	}
	// The RPC server records a request once its reply is written, so the
	// third step's record may trail the reply the client already holds.
	st, err := rpcClient.Stats(ctx)
	for deadline := time.Now().Add(2 * time.Second); err == nil && st.Transports.RPC.Requests < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st, err = rpcClient.Stats(ctx)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Transports.HTTP.Requests != 1 {
		t.Fatalf("http requests = %d, want 1", st.Transports.HTTP.Requests)
	}
	// 3 steps + the stats call itself.
	if st.Transports.RPC.Requests < 3 {
		t.Fatalf("rpc requests = %d, want >= 3", st.Transports.RPC.Requests)
	}
	if st.Transports.RPC.P99Micros < st.Transports.RPC.P50Micros {
		t.Fatalf("rpc latency quantiles inverted: %+v", st.Transports.RPC)
	}
}
