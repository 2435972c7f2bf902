package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"priste/internal/api"
)

// onRPC runs fn as an "rpc" subtest against a fresh server and an RPC
// client connected to it. Step streams are RPC-only, so the stream
// conformance tests run here rather than through forEachTransport.
func onRPC(t *testing.T, mkcfg func(t *testing.T) Config, fn func(t *testing.T, srv *Server, client api.Client)) {
	t.Helper()
	t.Run("rpc", func(t *testing.T) {
		srv := newTestServer(t, mkcfg(t))
		_, client := serveRPC(t, srv)
		fn(t, srv, client)
	})
}

// openStream asserts the client implements the streaming extension and
// opens a stream.
func openStream(t *testing.T, client api.Client, id string, window int) api.StepStream {
	t.Helper()
	sc, ok := client.(api.StreamClient)
	if !ok {
		t.Fatalf("%T does not implement api.StreamClient", client)
	}
	st, err := sc.StreamSteps(context.Background(), id, window)
	if err != nil {
		t.Fatalf("StreamSteps: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestStreamFIFOAndBackpressure is the core stream conformance test: a
// window far larger than the session queue pumps more steps than the
// queue can hold, and every release must still arrive — in exact FIFO
// order, with no 429 surfacing — because window exhaustion and queue
// pressure both resolve as backpressure, not drops.
func TestStreamFIFOAndBackpressure(t *testing.T) {
	mkcfg := func(t *testing.T) Config {
		cfg := testConfig()
		cfg.QueueDepth = 2 // force the server-side pump into its backpressure path
		return cfg
	}
	onRPC(t, mkcfg, func(t *testing.T, srv *Server, client api.Client) {
		ctx := context.Background()
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "s"}); err != nil {
			t.Fatal(err)
		}
		const n = 40
		st := openStream(t, client, "s", 16)
		sendErr := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := st.Send(i % 36); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- st.CloseSend()
		}()
		for i := 0; i < n; i++ {
			resp, err := st.Recv()
			if err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
			if resp.T != i {
				t.Fatalf("release %d has T=%d; stream broke FIFO order", i, resp.T)
			}
		}
		if _, err := st.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("Recv after drain = %v, want io.EOF", err)
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("send side: %v", err)
		}
	})
}

// TestStreamUnknownSession: opening a stream on an id that does not
// exist fails the open, not the first Send.
func TestStreamUnknownSession(t *testing.T) {
	onRPC(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		sc := client.(api.StreamClient)
		_, err := sc.StreamSteps(context.Background(), "ghost", 0)
		wantCode(t, err, api.CodeNotFound, "stream open on unknown session")
	})
}

// TestStreamMidStreamDelete: deleting the session under a live stream
// must end the stream with a clean terminal error (session_closed or
// not_found depending on where the next step catches the removal),
// never a hang or a silent drop.
func TestStreamMidStreamDelete(t *testing.T) {
	onRPC(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		ctx := context.Background()
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "doomed"}); err != nil {
			t.Fatal(err)
		}
		st := openStream(t, client, "doomed", 8)
		for i := 0; i < 3; i++ {
			if err := st.Send(i); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := st.Recv(); err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
		}
		if err := client.DeleteSession(ctx, "doomed"); err != nil {
			t.Fatal(err)
		}
		// The terminal error may surface on a Send (stream already dead)
		// or only once the window blocks and the death unblocks it; with
		// nobody consuming releases, a window of 8 guarantees the loop
		// cannot run past iteration 9 without hitting either.
		var last error
		for i := 0; i < 20 && last == nil; i++ {
			last = st.Send(0)
		}
		if last == nil {
			_, last = st.Recv()
		}
		if last == nil {
			t.Fatal("stream never reported a terminal error after the session was deleted")
		}
		var apiErr *api.Error
		if !errors.As(last, &apiErr) {
			t.Fatalf("terminal error %v is not a typed *api.Error", last)
		}
		if apiErr.Code != api.CodeSessionClosed && apiErr.Code != api.CodeNotFound {
			t.Fatalf("terminal code = %s, want session_closed or not_found", apiErr.Code)
		}
	})
}

// TestSSEStream drives the push surface end to end over HTTP: steps
// submitted through the unary endpoint must appear, in commit order, on
// a concurrently attached SSE subscriber, and deleting the session must
// close the stream with a session_closed end event.
func TestSSEStream(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	client := NewClient(ts.URL, nil)
	seed := int64(5)
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "watched", Seed: &seed}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/watched/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	type event struct {
		name string
		data string
	}
	events := make(chan event, 32)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				if name != "" {
					events <- event{name, data}
				}
				name, data = "", ""
				continue
			}
			if strings.HasPrefix(line, "event: ") {
				name = strings.TrimPrefix(line, "event: ")
			} else if strings.HasPrefix(line, "data: ") {
				data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	next := func(want string) event {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("SSE stream closed while waiting for %q", want)
			}
			if ev.name != want {
				t.Fatalf("event = %q (%s), want %q", ev.name, ev.data, want)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q event", want)
			return event{}
		}
	}

	hello := next("hello")
	var h sseHello
	if err := json.Unmarshal([]byte(hello.data), &h); err != nil || h.ID != "watched" || h.T != 0 {
		t.Fatalf("hello = %s (err %v), want id=watched t=0", hello.data, err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := client.Step(ctx, "watched", i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		ev := next("release")
		var r api.StepResponse
		if err := json.Unmarshal([]byte(ev.data), &r); err != nil {
			t.Fatalf("release %d: bad payload %s: %v", i, ev.data, err)
		}
		if r.T != i {
			t.Fatalf("release %d arrived with T=%d; SSE broke commit order", i, r.T)
		}
	}

	if err := client.DeleteSession(ctx, "watched"); err != nil {
		t.Fatal(err)
	}
	end := next("end")
	var e sseEnd
	if err := json.Unmarshal([]byte(end.data), &e); err != nil || e.Code != api.CodeSessionClosed {
		t.Fatalf("end = %s (err %v), want code session_closed", end.data, err)
	}
}

// TestHTTPStreamIngestRemoved: step streams are RPC-only. A POST to the
// SSE route is refused by method without stepping the session, and the
// HTTP client does not offer the streaming extension.
func TestHTTPStreamIngestRemoved(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "s"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/s/stream", "application/json", strings.NewReader(`{"locs":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/sessions/s/stream = %d, want 405", resp.StatusCode)
	}
	if info, err := srv.GetSession("s"); err != nil || info.T != 0 {
		t.Fatalf("after the refused POST: %+v, %v; want T=0", info, err)
	}
	if _, ok := any(NewClient(ts.URL, nil)).(api.StreamClient); ok {
		t.Fatal("the HTTP client implements api.StreamClient")
	}
}

// TestStreamHubLaggard: a subscriber that stops consuming is
// disconnected with resource_exhausted once it falls a full buffer
// behind — the commit path must never block on a slow reader.
func TestStreamHubLaggard(t *testing.T) {
	m := newMetrics()
	hub := newStreamHub(2, m)
	sub := hub.subscribe("s")
	for i := 0; i < 3; i++ {
		hub.publish("s", api.StepResponse{T: i})
	}
	// Buffer holds 2; the third publish must have dropped the subscriber.
	for i := 0; i < 2; i++ {
		if r, ok := <-sub.ch; !ok || r.T != i {
			t.Fatalf("buffered release %d: got (%+v, %v)", i, r, ok)
		}
	}
	if _, ok := <-sub.ch; ok {
		t.Fatal("subscriber channel still open after lagging past its buffer")
	}
	wantCode(t, sub.reason, api.CodeResourceExhausted, "laggard termination")
	if got := m.sseDropped.Load(); got != 1 {
		t.Fatalf("sseDropped = %d, want 1", got)
	}
	if got := m.sseSubscribers.Load(); got != 0 {
		t.Fatalf("sseSubscribers gauge = %d, want 0", got)
	}
}

// TestStreamWindowOccupancyStats: with no workers draining the queue,
// streamed steps pile up in flight and /statsz must report them in the
// per-shard window occupancy — and report zero again once the stream
// dies with the server's session close.
func TestStreamWindowOccupancyStats(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1 // no drain: submitted steps stay in flight
	srv := newTestServer(t, cfg)
	_, client := serveRPC(t, srv)
	ctx := context.Background()
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "windowed"}); err != nil {
		t.Fatal(err)
	}
	st := openStream(t, client, "windowed", 4)
	for i := 0; i < 4; i++ {
		if err := st.Send(i); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return srv.Stats().Streams.WindowOccupancy == 4 })
	stats := srv.Stats().Streams
	sum := int64(0)
	for _, n := range stats.PerShardWindow {
		sum += n
	}
	if sum != stats.WindowOccupancy {
		t.Fatalf("per-shard windows sum to %d, total reports %d", sum, stats.WindowOccupancy)
	}
	if stats.RPCOpened < 1 || stats.RPCActive < 1 {
		t.Fatalf("stream gauges = opened %d active %d, want >= 1", stats.RPCOpened, stats.RPCActive)
	}
}

// TestSchedulerBatchAware: with a drain batch of 1 every visit with
// work left re-queues the session (fairness).
func TestSchedulerBatchAware(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.DrainBatch = 1
	srv := newTestServer(t, cfg)
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	var items []api.BatchStepItem
	for i := 0; i < 6; i++ {
		items = append(items, api.BatchStepItem{SessionID: "a", Loc: i % 36})
		items = append(items, api.BatchStepItem{SessionID: "b", Loc: i % 36})
	}
	for _, res := range srv.StepBatch(ctx, items) {
		if res.Error != "" {
			t.Fatalf("batch step failed: %s", res.Error)
		}
	}
	sched := srv.Stats().Scheduler
	if sched.Requeues == 0 {
		t.Fatalf("drain-batch cap of 1 over 12 queued steps produced no requeues: %+v", sched)
	}
}

// TestRunQueueIsArrivalOrder: the run queue serves sessions in the
// order they became runnable, whatever plan they run on — a1 and a2
// share a plan, b1 does not, and queued a1, b1, a2 they are served
// a1, b1, a2. The server has no workers, so the test drives the queue.
func TestRunQueueIsArrivalOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	srv := newTestServer(t, cfg)
	var queued []*Session
	for _, c := range []struct {
		id  string
		eps float64
	}{{"a1", 0.5}, {"b1", 2}, {"a2", 0.5}} {
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: c.id, Epsilon: c.eps}); err != nil {
			t.Fatal(err)
		}
		sess, _ := srv.mgr.Get(c.id)
		queued = append(queued, sess)
	}
	if a1, b1, a2 := queued[0], queued[1], queued[2]; a1.fw.Plan() != a2.fw.Plan() || a1.fw.Plan() == b1.fw.Plan() {
		t.Fatal("want a1 and a2 on one plan and b1 on another")
	}
	for _, sess := range queued {
		srv.pool.schedule(sess)
	}
	for i, want := range queued {
		got, ok := srv.pool.next()
		if !ok {
			t.Fatalf("pick %d: pool stopped", i)
		}
		if got != want {
			t.Fatalf("pick %d = %s, want %s (arrival order a1, b1, a2)", i, got.id, want.id)
		}
	}
}
