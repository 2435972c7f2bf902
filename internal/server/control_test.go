package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"priste/internal/api"
	"priste/internal/rpc"
)

// pipeListener hands an rpc.Server the one end of an in-memory pipe.
type pipeListener struct{ conns chan net.Conn }

func (l pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l pipeListener) Close() error   { close(l.conns); return nil }
func (l pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// rpcPipe is a raw RPC connection to a service over net.Pipe: no socket,
// and frames written by hand.
type rpcPipe struct {
	conn  net.Conn
	reqID uint64
}

func newRPCPipe(tb testing.TB, svc api.Service) *rpcPipe {
	tb.Helper()
	near, far := net.Pipe()
	lis := pipeListener{conns: make(chan net.Conn, 1)}
	lis.conns <- far
	rs := rpc.NewServer(svc)
	go func() { _ = rs.Serve(lis) }()
	tb.Cleanup(func() {
		near.Close()
		rs.Close()
	})
	return &rpcPipe{conn: near}
}

// call sends one opCall frame, [method][payload], and returns the reply
// payload, or the reply's opError as an *api.Error.
func (p *rpcPipe) call(method byte, payload []byte) ([]byte, error) {
	p.reqID++
	if _, err := p.conn.Write(rawFrame(wireOpCall, p.reqID, append([]byte{method}, payload...))); err != nil {
		return nil, err
	}
	op, reqID, _, body, err := readRawFrame(p.conn)
	switch {
	case err != nil:
		return nil, err
	case reqID != p.reqID:
		return nil, fmt.Errorf("reply to request %d, want %d", reqID, p.reqID)
	case op != wireOpError:
		return body, nil
	case len(body) == 0 || api.CodeFromWire(body[0]).Wire() != body[0]:
		return nil, fmt.Errorf("error frame without a canonical code: %q", body)
	}
	return nil, &api.Error{Code: api.CodeFromWire(body[0]), Message: string(body[1:])}
}

// httpCall serves one request on h and returns the reply body, or the
// reply's error envelope as an *api.Error.
func httpCall(h http.Handler, method, target string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code < 300 {
		return rec.Body.Bytes(), nil
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !eb.Code.Valid() {
		return nil, fmt.Errorf("status %d without an error envelope: %q", rec.Code, rec.Body)
	}
	return nil, &api.Error{Code: eb.Code, Message: eb.Error}
}

// handlerTransport carries HTTP client requests straight to a handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestStrictRequestDecoding: both transports decode a request body
// strictly. An unknown field or trailing data is invalid_argument with
// the one decoder's message, and the call does not happen.
func TestStrictRequestDecoding(t *testing.T) {
	forEachTransport(t, plainConfig, func(t *testing.T, srv *Server, client api.Client) {
		_, overHTTP := client.(*Client)
		h, p := srv.Handler(), newRPCPipe(t, srv)
		send := func(method byte, route, body string) error {
			if overHTTP {
				verb, path, _ := strings.Cut(route, " ")
				_, err := httpCall(h, verb, path, []byte(body))
				return err
			}
			_, err := p.call(method, []byte(body))
			return err
		}
		type request struct {
			name   string
			method byte // the RPC method byte
			route  string
			body   string
		}
		requests := []request{
			{"create, unknown field", 1, "POST /v1/sessions", `{"id":"u","bogus":1}`},
			{"create, trailing data", 1, "POST /v1/sessions", `{"id":"u"} {"x":1}`},
			{"create, trailing garbage", 1, "POST /v1/sessions", `{"id":"u"}x`},
			{"import, unknown field", 6, "POST /v1/sessions/import", `{"version":1,"id":"u","world":"w","bogus":1}`},
		}
		if !overHTTP {
			// Over HTTP these travel in the path or nowhere at all.
			requests = append(requests,
				request{"get, unknown field", 2, "", `{"id":"u","bogus":1}`},
				request{"delete, trailing data", 3, "", `{"id":"u"} {}`},
				request{"stats, empty payload", 7, "", ``},
				request{"health, empty payload", 8, "", ``},
			)
		}
		for _, r := range requests {
			err := send(r.method, r.route, r.body)
			wantCode(t, err, api.CodeInvalidArgument, r.name)
			if !strings.HasPrefix(err.Error(), "api: bad request body: ") {
				t.Errorf("%s: message %q is not the decoder's", r.name, err)
			}
			if _, err := srv.GetSession("u"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: the call happened: session u exists", r.name)
			}
		}
	})
}

// TestCallsServed: every control call is routed by Handler and
// dispatched by the RPC server, and an unknown method byte is still
// rejected by name.
func TestCallsServed(t *testing.T) {
	srv := newTestServer(t, testConfig())
	mux := srv.Routes()
	for _, call := range api.Calls {
		method, path, _ := strings.Cut(call.Route, " ")
		path = strings.Replace(path, "{id}", "x", 1)
		if _, pattern := mux.Handler(httptest.NewRequest(method, path, nil)); pattern != call.Route {
			t.Errorf("%s: %s %s resolves to pattern %q", call.Route, method, path, pattern)
		}
	}
	p := newRPCPipe(t, srv)
	for _, call := range api.Calls {
		payload := []byte("{}")
		if reflect.TypeOf(call.NewRequest()).Elem() == reflect.TypeOf(api.SessionRef{}) {
			payload = []byte(`{"id":"x"}`)
		}
		_, err := p.call(call.Wire, payload)
		if err != nil && (err.Error() == "rpc: unknown method" || strings.HasPrefix(err.Error(), "api: bad request body")) {
			t.Errorf("%s: method byte %d not dispatched: %v", call.Route, call.Wire, err)
		}
	}
	_, err := p.call(9, []byte("{}"))
	wantCode(t, err, api.CodeInvalidArgument, "unknown method byte")
	if err.Error() != "rpc: unknown method" {
		t.Errorf("unknown method byte: %q", err)
	}
}

// goldenBodies returns the RPC golden's request payloads by method
// byte: every body a real client sent, and the malformed ones.
func goldenBodies(tb testing.TB) (methods []byte, bodies [][]byte) {
	tb.Helper()
	raw, err := os.ReadFile(wireRPCGold)
	if err != nil {
		tb.Fatal(err)
	}
	line := regexp.MustCompile(`^> op=2 req=\d+ trace=0 method=(\d+) (.*)$`)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := line.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b, _ := strconv.Atoi(m[1])
		methods = append(methods, byte(b))
		bodies = append(bodies, []byte(strings.ReplaceAll(m[2], `\n`, "\n")))
	}
	if len(bodies) == 0 {
		tb.Fatalf("%s holds no request", wireRPCGold)
	}
	return methods, bodies
}

// FuzzControlCall feeds one request body to every control call of one
// in-process Server, through Handler (httptest, no socket) and through
// the RPC dispatch (a hand-framed opCall on net.Pipe). A body is the
// HTTP request body of a POST call; for the others, HTTP carries the
// request the body decodes to in the path or query, as the client
// would. Each transport starts from the same state: one session "s".
// Neither panics, every rejection is an *api.Error, the two agree on
// accept or reject and on the code, and an accepted create or import
// is readable with GetSession.
func FuzzControlCall(f *testing.F) {
	methods, bodies := goldenBodies(f)
	for i := range bodies {
		f.Add(methods[i], bodies[i])
	}
	cfg := testConfig()
	cfg.Workers = 1
	srv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	exp, err := exportOf(srv, "exported")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(6), exp)
	for _, id := range []string{"", ".", "..", "s/..", "%2E", "s?x=1"} {
		// Ids a router could clean out of the path or read as a query.
		ref, _ := json.Marshal(api.SessionRef{ID: id})
		for _, method := range []byte{2, 3, 5} { // get, delete, export
			f.Add(method, ref)
		}
	}
	h := srv.Handler()
	client := NewClient("http://priste.test", &http.Client{Transport: handlerTransport{h}})
	p := newRPCPipe(f, srv)
	reset := func(t *testing.T) {
		page, err := srv.ListSessions(api.ListSessionsRequest{Limit: api.MaxListLimit})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Sessions {
			if err := srv.DeleteSession(s.ID); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, method byte, body []byte) {
		var call *api.Call
		for _, c := range api.Calls {
			if c.Wire == method {
				call = c
			}
		}
		if call == nil {
			return
		}
		verb, path, _ := strings.Cut(call.Route, " ")

		reset(t)
		var httpReply []byte
		var httpErr error
		if verb == http.MethodPost {
			httpReply, httpErr = httpCall(h, verb, path, body)
		} else {
			req := call.NewRequest()
			if httpErr = api.DecodeJSON(bytes.NewReader(body), call.Limit, req); httpErr == nil {
				var out json.RawMessage
				httpErr = client.call(context.Background(), call, reflect.ValueOf(req).Elem().Interface(), &out)
				httpReply = out
			}
		}
		checkAccepted(t, srv, call, "http", httpReply, httpErr)

		reset(t)
		rpcReply, rpcErr := p.call(method, body)
		checkAccepted(t, srv, call, "rpc", rpcReply, rpcErr)

		if api.CodeOf(httpErr) != api.CodeOf(rpcErr) {
			t.Fatalf("%s %q: http says %v, rpc says %v", call.Route, body, httpErr, rpcErr)
		}
	})
}

// exportOf creates a session id on srv, steps it once and returns its
// export as JSON.
func exportOf(srv *Server, id string) ([]byte, error) {
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id}); err != nil {
		return nil, err
	}
	if _, err := srv.Step(bg, id, 3); err != nil {
		return nil, err
	}
	exp, err := srv.ExportSession(bg, id)
	if err != nil {
		return nil, err
	}
	return json.Marshal(exp)
}

// checkAccepted holds one transport's verdict to the fuzz properties it
// can be checked against alone.
func checkAccepted(t *testing.T, srv *Server, call *api.Call, transport string, reply []byte, err error) {
	t.Helper()
	if err != nil {
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || !apiErr.Code.Valid() {
			t.Fatalf("%s %s: rejection %v is not an api error", transport, call.Route, err)
		}
		return
	}
	if !strings.HasPrefix(call.Route, "POST ") { // create and import answer a SessionInfo
		return
	}
	var info api.SessionInfo
	if err := json.Unmarshal(reply, &info); err != nil {
		t.Fatalf("%s %s: reply %q: %v", transport, call.Route, reply, err)
	}
	if _, err := srv.GetSession(info.ID); err != nil {
		t.Fatalf("%s %s accepted session %q, which GetSession cannot read: %v", transport, call.Route, info.ID, err)
	}
}
