package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"priste/internal/api"
	"priste/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("payload")
	buf.Write(appendFrame(nil, opCall, 42, 0xabcdef, body))
	op, reqID, trace, got, err := readFrame(&buf)
	if err != nil || op != opCall || reqID != 42 || trace != 0xabcdef || !bytes.Equal(got, body) {
		t.Fatalf("frame round trip: op=%d id=%d trace=%#x body=%q err=%v", op, reqID, trace, got, err)
	}
	// A frame length outside the bound is a protocol error.
	var bad bytes.Buffer
	bad.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, _, err := readFrame(&bad); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A torn frame reports an error rather than blocking forever.
	var torn bytes.Buffer
	torn.Write(appendFrame(nil, opStep, 1, 0, []byte("xxxx"))[:7])
	if _, _, _, _, err := readFrame(&torn); err == nil {
		t.Fatal("torn frame accepted")
	}
}

func TestStepCodecRoundTrip(t *testing.T) {
	body, err := appendStepReq(nil, "user-7", 1234)
	if err != nil {
		t.Fatal(err)
	}
	id, loc, err := parseStepReq(body)
	if err != nil || id != "user-7" || loc != 1234 {
		t.Fatalf("step request round trip: %q %d %v", id, loc, err)
	}
	resp := api.StepResponse{
		T: 9, Obs: 35, Alpha: 0.625, Attempts: 3,
		ConservativeRejections: 1, Uniform: true, CheckMicros: 123.5,
	}
	got, err := parseStepResp(appendStepResp(nil, resp))
	if err != nil || got != resp {
		t.Fatalf("step response round trip: %+v vs %+v (%v)", got, resp, err)
	}
	if _, _, err := parseStepReq([]byte{0}); err == nil {
		t.Fatal("short step request accepted")
	}
	if _, err := parseStepResp([]byte{1, 2, 3}); err == nil {
		t.Fatal("short step response accepted")
	}
}

func TestErrorCodecRoundTrip(t *testing.T) {
	in := api.Errf(api.CodeResourceExhausted, "queue full")
	out := parseErrResp(appendErrResp(nil, in))
	if out.Code != in.Code || out.Message != in.Message {
		t.Fatalf("error round trip: %+v vs %+v", out, in)
	}
	if !errors.Is(out, in) {
		t.Fatal("round-tripped error does not match sentinel")
	}
}

// fakeService is a minimal api.Service for transport-level tests; the
// full conformance suite against the real server lives in
// internal/server.
type fakeService struct {
	mu    sync.Mutex
	steps map[string]int
}

func newFakeService() *fakeService { return &fakeService{steps: make(map[string]int)} }

func (f *fakeService) CreateSession(req api.CreateSessionRequest) (api.SessionInfo, error) {
	if req.ID == "taken" {
		return api.SessionInfo{}, api.Errf(api.CodeAlreadyExists, "fake: taken")
	}
	f.mu.Lock()
	f.steps[req.ID] = 0
	f.mu.Unlock()
	return api.SessionInfo{ID: req.ID}, nil
}

func (f *fakeService) GetSession(id string) (api.SessionInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.steps[id]
	if !ok {
		return api.SessionInfo{}, api.Errf(api.CodeNotFound, "fake: no session")
	}
	return api.SessionInfo{ID: id, T: t}, nil
}

func (f *fakeService) DeleteSession(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.steps[id]; !ok {
		return api.Errf(api.CodeNotFound, "fake: no session")
	}
	delete(f.steps, id)
	return nil
}

func (f *fakeService) Step(_ context.Context, id string, loc int) (api.StepResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.steps[id]
	if !ok {
		return api.StepResponse{}, api.Errf(api.CodeNotFound, "fake: no session")
	}
	f.steps[id] = t + 1
	return api.StepResponse{T: t, Obs: loc, Alpha: 0.5, Attempts: 1}, nil
}

func (f *fakeService) StepBatch(ctx context.Context, steps []api.BatchStepItem) []api.StepResponse {
	out := make([]api.StepResponse, len(steps))
	for i, item := range steps {
		resp, err := f.Step(ctx, item.SessionID, item.Loc)
		if err != nil {
			out[i] = api.FailedStep(item.SessionID, err)
			continue
		}
		resp.SessionID = item.SessionID
		out[i] = resp
	}
	return out
}

func (f *fakeService) ListSessions(api.ListSessionsRequest) (api.SessionPage, error) {
	return api.SessionPage{}, nil
}

func (f *fakeService) ExportSession(_ context.Context, id string) (api.SessionExport, error) {
	return api.SessionExport{Version: api.V1, SessionMeta: store.SessionMeta{ID: id, World: "fake"}}, nil
}

func (f *fakeService) ImportSession(exp api.SessionExport) (api.SessionInfo, error) {
	return api.SessionInfo{ID: exp.ID, T: exp.T}, nil
}

func (f *fakeService) Stats() api.Stats   { return api.Stats{} }
func (f *fakeService) Health() api.Health { return api.Health{Status: "ok"} }

func dialFake(t *testing.T) (*fakeService, *Client) {
	t.Helper()
	svc := newFakeService()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return svc, client
}

// TestTransportRoundTrip drives one of everything through a real TCP
// connection against the fake service.
func TestTransportRoundTrip(t *testing.T) {
	_, client := dialFake(t)
	ctx := context.Background()

	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "taken"}); !errors.Is(err, api.Errf(api.CodeAlreadyExists, "")) {
		t.Fatalf("typed error lost: %v", err)
	}
	for k := 0; k < 3; k++ {
		res, err := client.Step(ctx, "u", 10+k)
		if err != nil || res.T != k || res.Obs != 10+k {
			t.Fatalf("step %d = %+v, %v", k, res, err)
		}
	}
	info, err := client.Session(ctx, "u")
	if err != nil || info.T != 3 {
		t.Fatalf("session = %+v, %v", info, err)
	}
	results, err := client.StepBatch(ctx, []api.BatchStepItem{
		{SessionID: "u", Loc: 1},
		{SessionID: "ghost", Loc: 2},
		{SessionID: "u", Loc: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].T != 3 || results[2].T != 4 {
		t.Fatalf("batch order broken: %+v", results)
	}
	if results[1].Code != api.CodeNotFound {
		t.Fatalf("batch inline error = %+v", results[1])
	}
	exp, err := client.ExportSession(ctx, "u")
	if err != nil || exp.World != "fake" {
		t.Fatalf("export = %+v, %v", exp, err)
	}
	if _, err := client.ImportSession(ctx, exp); err != nil {
		t.Fatal(err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteSession(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteSession(ctx, "u"); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("second delete: %v", err)
	}
}

// TestConcurrentCalls hammers one connection with concurrent steps from
// many goroutines (run under -race): the request-id multiplexing must
// route every response to its caller.
func TestConcurrentCalls(t *testing.T) {
	_, client := dialFake(t)
	ctx := context.Background()
	const goroutines = 8
	const steps = 50
	for g := 0; g < goroutines; g++ {
		id := fmt.Sprintf("u%d", g)
		if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("u%d", g)
			for k := 0; k < steps; k++ {
				res, err := client.Step(ctx, id, g*1000+k)
				if err != nil {
					errc <- err
					return
				}
				// Obs echoes loc in the fake: a cross-wired response would
				// carry another goroutine's payload.
				if res.Obs != g*1000+k {
					errc <- fmt.Errorf("goroutine %d step %d got obs %d", g, k, res.Obs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestClientReconnect: after the server side drops the connection, the
// next call redials transparently.
func TestClientReconnect(t *testing.T) {
	svc := newFakeService()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	go func() { _ = srv.Serve(lis) }()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ctx := context.Background()
	if _, err := client.CreateSession(ctx, api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	// Kill every live connection server-side; the listener stays up.
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	// The next call may land on the corpse once, then must recover.
	ok := false
	for attempt := 0; attempt < 3 && !ok; attempt++ {
		if _, err := client.Session(ctx, "u"); err == nil {
			ok = true
		}
	}
	if !ok {
		t.Fatal("client never recovered after connection loss")
	}
	srv.Close()
}
