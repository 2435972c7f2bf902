package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/obs"
	"priste/internal/rpc"
	"priste/internal/store"
)

var updateWire = flag.Bool("update", false, "rewrite the wire goldens (testdata/wire_http.gold, ../rpc/testdata/wire_rpc.gold)")

// Wire golden files. The RPC capture lives with the rpc package it
// pins; both are written by TestWireGolden, which drives the two
// transports through one scenario.
var (
	wireHTTPGold = filepath.Join("testdata", "wire_http.gold")
	wireRPCGold  = filepath.Join("..", "rpc", "testdata", "wire_rpc.gold")
)

// wireTime is the wire service's clock: every time it reports is fixed.
var wireTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// wireService is a deterministic api.Service for the wire goldens: fixed
// times and contents, and a service error for each id-addressed call on
// the id "missing", for a create of "taken" and for an import from
// another world.
type wireService struct {
	draining bool
}

var errWireMissing = api.Errf(api.CodeNotFound, "wire: no session")

func wireInfo(id string) api.SessionInfo {
	return api.SessionInfo{
		ID: id, T: 2, Epsilon: 1, Alpha: 0.5, Mechanism: "plm", Events: []string{"0-5@2-4"},
		Created: wireTime, LastUsed: wireTime.Add(time.Second), Queued: 1,
	}
}

func (w *wireService) CreateSession(req api.CreateSessionRequest) (api.SessionInfo, error) {
	if req.ID == "taken" {
		return api.SessionInfo{}, api.Errf(api.CodeAlreadyExists, "wire: session taken exists")
	}
	return wireInfo(req.ID), nil
}

func (w *wireService) GetSession(id string) (api.SessionInfo, error) {
	if id == "missing" {
		return api.SessionInfo{}, errWireMissing
	}
	return wireInfo(id), nil
}

func (w *wireService) DeleteSession(id string) error {
	if id == "missing" {
		return errWireMissing
	}
	return nil
}

func (w *wireService) Step(context.Context, string, int) (api.StepResponse, error) {
	return api.StepResponse{}, api.Errf(api.CodeInternal, "wire: no steps")
}

func (w *wireService) StepBatch(context.Context, []api.BatchStepItem) []api.StepResponse { return nil }

func (w *wireService) ListSessions(req api.ListSessionsRequest) (api.SessionPage, error) {
	req, err := req.Normalize()
	if err != nil {
		return api.SessionPage{}, err
	}
	return api.SessionPage{
		Sessions:   []api.SessionInfo{wireInfo(req.Cursor + "~")},
		NextCursor: fmt.Sprintf("%s~%d", req.Cursor, req.Limit),
	}, nil
}

func (w *wireService) ExportSession(_ context.Context, id string) (api.SessionExport, error) {
	if id == "missing" {
		return api.SessionExport{}, errWireMissing
	}
	return api.SessionExport{
		Version: api.V1,
		SessionMeta: store.SessionMeta{
			World: "wire", ID: id, Seed: 7, Epsilon: 1, Alpha: 0.5, Mechanism: "plm",
			Events: []string{"0-5@2-4"}, CreatedUnixNano: wireTime.UnixNano(),
		},
		Snapshot: core.Snapshot{
			T:           2,
			Tags:        []core.ReleaseTag{{AlphaBits: math.Float64bits(0.5), Obs: 3}, {Obs: 9}},
			Fingerprint: 0x1234,
			RNG:         []byte{1, 2, 3},
		},
	}, nil
}

func (w *wireService) ImportSession(exp api.SessionExport) (api.SessionInfo, error) {
	if err := exp.Validate(); err != nil {
		return api.SessionInfo{}, err
	}
	if exp.World != "wire" {
		return api.SessionInfo{}, api.Errf(api.CodeFailedPrecondition, "wire: export is from world "+exp.World)
	}
	info := wireInfo(exp.ID)
	info.T = exp.T
	return info, nil
}

func (w *wireService) Stats() api.Stats {
	var st api.Stats
	st.Sessions = api.SessionStats{Live: 3, Created: 5, Evicted: 1, Imported: 1, Exported: 2}
	return st
}

func (w *wireService) Health() api.Health {
	h := api.Health{Status: "ok", Sessions: 3, UptimeSeconds: 12.5, Version: "wire", GoVersion: "go-wire", RowKernel: "portable"}
	if w.draining {
		h.Status = "draining"
	}
	return h
}

// wireBody renders a body on one line, its newlines spelled \n so that a
// trailing newline shows.
func wireBody(b []byte) string { return strings.ReplaceAll(string(b), "\n", `\n`) }

// httpRecorder wraps a handler and logs every request and response:
// method, URI, content type and body each way, and the status. The
// response trace header is logged as present or absent: its value is
// server-generated.
func httpRecorder(log *strings.Builder, h http.Handler) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		mu.Lock()
		fmt.Fprintf(log, "> %s %s\n", r.Method, r.URL.RequestURI())
		if ct := r.Header.Get("Content-Type"); ct != "" {
			fmt.Fprintf(log, "> Content-Type: %s\n", ct)
		}
		fmt.Fprintf(log, "> %s\n", wireBody(body))
		fmt.Fprintf(log, "< %d\n", rec.Code)
		if ct := rec.Header().Get("Content-Type"); ct != "" {
			fmt.Fprintf(log, "< Content-Type: %s\n", ct)
		}
		if rec.Header().Get(obs.TraceHeader) != "" {
			fmt.Fprintf(log, "< %s: (masked)\n", obs.TraceHeader)
		}
		fmt.Fprintf(log, "< %s\n", wireBody(rec.Body.Bytes()))
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// frameLog collects the bytes an RPC server reads and writes on its
// connections, for the RPC golden.
type frameLog struct {
	mu      sync.Mutex
	in, out []byte
}

type recordingConn struct {
	net.Conn
	log *frameLog
}

func (c recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.mu.Lock()
	c.log.in = append(c.log.in, p[:n]...)
	c.log.mu.Unlock()
	return n, err
}

func (c recordingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.out = append(c.log.out, p...)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

type recordingListener struct {
	net.Listener
	log *frameLog
}

func (l recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return recordingConn{Conn: c, log: l.log}, nil
}

// The frame ops the goldens send and decode, as the rpc package numbers
// them (part of the wire protocol, never renumbered).
const (
	wireOpCall  = 2
	wireOpError = 5
)

// rawFrame encodes one RPC frame: [len:4][op:1][reqID:8][trace:8][body].
func rawFrame(op byte, reqID uint64, body []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(17+len(body)))
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = binary.BigEndian.AppendUint64(buf, 0)
	return append(buf, body...)
}

// readRawFrame reads one RPC frame: op, reqID, trace and body.
func readRawFrame(r io.Reader) (op byte, reqID, trace uint64, body []byte, err error) {
	var hdr [4 + 17]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	body = make([]byte, int(binary.BigEndian.Uint32(hdr[:4]))-17)
	if _, err = io.ReadFull(r, body); err != nil {
		return
	}
	return hdr[4], binary.BigEndian.Uint64(hdr[5:13]), binary.BigEndian.Uint64(hdr[13:21]), body, nil
}

// flush logs the complete frames read and written since the last flush.
// A request's trace is logged as sent; a response's is masked, since the
// server generates one for a request that carries none.
func (l *frameLog) flush(log *strings.Builder) {
	l.mu.Lock()
	in, out := l.in, l.out
	l.in, l.out = nil, nil
	l.mu.Unlock()
	for _, side := range []struct {
		dir   string
		bytes []byte
	}{{">", in}, {"<", out}} {
		r := bytes.NewReader(side.bytes)
		for r.Len() > 0 {
			op, reqID, trace, body, err := readRawFrame(r)
			if err != nil {
				fmt.Fprintf(log, "%s torn frame: %v\n", side.dir, err)
				break
			}
			tr := "(masked)"
			if side.dir == ">" {
				tr = fmt.Sprint(trace)
			}
			fmt.Fprintf(log, "%s op=%d req=%d trace=%s", side.dir, op, reqID, tr)
			switch {
			case op == wireOpCall && len(body) > 0:
				fmt.Fprintf(log, " method=%d %s\n", body[0], wireBody(body[1:]))
			case op == wireOpError && len(body) > 0:
				fmt.Fprintf(log, " code=%d %s\n", body[0], wireBody(body[1:]))
			default:
				fmt.Fprintf(log, " %s\n", wireBody(body))
			}
		}
	}
}

// wireCalls drives every control call through client: a success, a
// service error and an id that needs escaping for each, list with a
// cursor and a limit, and health both serving and draining. exchange
// runs one labelled call and logs what went over the wire.
func wireCalls(t *testing.T, client api.Client, svc *wireService, exchange func(label string, call func())) {
	ctx := context.Background()
	seed := int64(42)
	delta := 0.25
	for _, req := range []api.CreateSessionRequest{
		{ID: "u", Seed: &seed},
		{ID: "a/b c", Epsilon: 0.5, Alpha: 2, Mechanism: "plm", Delta: &delta, Events: []string{"0-5@2-4"}},
		{},
		{ID: "taken"},
	} {
		exchange("create "+req.ID, func() { _, _ = client.CreateSession(ctx, req) })
	}
	for _, id := range []string{"u", "a/b c", "missing"} {
		exchange("get "+id, func() { _, _ = client.Session(ctx, id) })
	}
	for _, req := range []api.ListSessionsRequest{{}, {Limit: 2, Cursor: "a/b c"}, {Cursor: "&x=1"}, {Limit: -1}} {
		exchange(fmt.Sprintf("list %+v", req), func() { _, _ = client.ListSessions(ctx, req) })
	}
	var exp api.SessionExport
	for _, id := range []string{"missing", "a/b c", "u"} {
		exchange("export "+id, func() { exp, _ = client.ExportSession(ctx, id) })
	}
	if exp.ID != "u" {
		t.Fatalf("export of u = %+v", exp)
	}
	other, bad := exp, exp
	other.World = "elsewhere"
	bad.Version = 9
	for _, e := range []api.SessionExport{exp, other, bad} {
		exchange(fmt.Sprintf("import world=%s version=%d", e.World, e.Version), func() { _, _ = client.ImportSession(ctx, e) })
	}
	exchange("stats", func() { _, _ = client.Stats(ctx) })
	exchange("health ok", func() { _ = client.Health(ctx) })
	svc.draining = true
	exchange("health draining", func() { _ = client.Health(ctx) })
	svc.draining = false
	for _, id := range []string{"u", "a/b c", "missing"} {
		exchange("delete "+id, func() { _ = client.DeleteSession(ctx, id) })
	}
}

// malformedBodies are request bodies no strict decoder accepts.
var malformedBodies = []struct{ name, body string }{
	{"unknown field", `{"id":"u","bogus":1}`},
	{"truncated", `{"id":`},
	{"trailing data", `{"id":"u"} {"x":1}`},
	{"wrong type", `{"id":7}`},
	{"empty", ``},
}

// TestWireGolden pins the bytes both transports put on the wire for
// every control call: requests and replies of the real clients and
// servers over a deterministic service, and the replies to malformed
// requests sent raw. Run with -update to rewrite the goldens.
func TestWireGolden(t *testing.T) {
	svc := &wireService{}

	var httpLog strings.Builder
	mux := http.NewServeMux()
	RegisterAPIRoutes(mux, svc, nil)
	ts := httptest.NewServer(httpRecorder(&httpLog, TraceHandler(mux, nil)))
	defer ts.Close()
	httpExchange := func(label string, call func()) {
		fmt.Fprintf(&httpLog, "# %s\n", label)
		call()
		httpLog.WriteString("\n")
	}
	httpLog.WriteString("# HTTP wire golden: go test ./internal/server -run TestWireGolden -update\n\n")
	wireCalls(t, NewClient(ts.URL, nil), svc, httpExchange)
	httpRaw := func(method, url, body string) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, path := range []string{"/v1/sessions", "/v1/sessions/import"} {
		for _, m := range malformedBodies {
			httpExchange("POST "+path+" "+m.name, func() { httpRaw(http.MethodPost, ts.URL+path, m.body) })
		}
	}
	for _, q := range []string{"limit=abc", "limit=1e3"} {
		httpExchange("list "+q, func() { httpRaw(http.MethodGet, ts.URL+"/v1/sessions?"+q, "") })
	}

	var rpcLog strings.Builder
	frames := &frameLog{}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rpcSrv := rpc.NewServer(svc)
	go func() { _ = rpcSrv.Serve(recordingListener{Listener: lis, log: frames}) }()
	defer rpcSrv.Close()
	client, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rpcExchange := func(label string, call func()) {
		fmt.Fprintf(&rpcLog, "# %s\n", label)
		call()
		frames.flush(&rpcLog)
		rpcLog.WriteString("\n")
	}
	rpcLog.WriteString("# RPC wire golden: go test ./internal/server -run TestWireGolden -update\n\n")
	wireCalls(t, client, svc, rpcExchange)
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	reqID := uint64(0)
	rpcRaw := func(body []byte) {
		reqID++
		if _, err := raw.Write(rawFrame(wireOpCall, reqID, body)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := readRawFrame(raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, call := range []struct {
		name   string
		method byte
	}{{"create", 1}, {"get", 2}, {"import", 6}} {
		for _, m := range malformedBodies {
			rpcExchange(call.name+" "+m.name, func() { rpcRaw(append([]byte{call.method}, m.body...)) })
		}
	}
	rpcExchange("stats, empty payload", func() { rpcRaw([]byte{7}) })
	rpcExchange("health, empty payload", func() { rpcRaw([]byte{8}) })
	rpcExchange("unknown method byte", func() { rpcRaw([]byte{9, '{', '}'}) })
	rpcExchange("no method byte", func() { rpcRaw(nil) })

	for _, g := range []struct {
		path string
		got  string
	}{{wireHTTPGold, httpLog.String()}, {wireRPCGold, rpcLog.String()}} {
		if *updateWire {
			if err := os.WriteFile(g.path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s differs from the wire (rerun with -update to rewrite it):\n%s", g.path, lineDiff(string(want), g.got))
		}
	}
}

// lineDiff lists the lines of want and got that differ, position by
// position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n\t- %s\n\t+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
