package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// MaxBodyBytes caps a request body; an import carries a whole release
// history, so its call has a larger cap of its own.
const MaxBodyBytes = 1 << 20

// SessionRef addresses one session: the request of get, delete and
// export. HTTP carries it as the {id} path segment.
type SessionRef struct {
	ID string `json:"id"`
}

// Call is one control call of the versioned API: the request/response
// pair of a Service method, with its HTTP route and its RPC method byte.
// Every transport is derived from Calls, so no two can disagree about a
// call's route, body cap or request decoding.
type Call struct {
	// Route is the HTTP route pattern: method, then path.
	Route string
	// Wire is the RPC method byte of the call's opCall frames. Part of
	// the wire protocol: never renumber, only append.
	Wire byte
	// Limit caps the request body in bytes.
	Limit int64
	// NewRequest returns a pointer to a zero request of the call's type.
	NewRequest func() any
	// Serve runs the call on svc with a request NewRequest allocated and
	// returns the response value.
	Serve func(ctx context.Context, svc Service, req any) (any, error)
}

// declare wraps a typed Service method as a Call.
func declare[Req, Resp any](route string, wire byte, limit int64, serve func(context.Context, Service, Req) (Resp, error)) *Call {
	return &Call{
		Route: route, Wire: wire, Limit: limit,
		NewRequest: func() any { return new(Req) },
		Serve: func(ctx context.Context, svc Service, req any) (any, error) {
			resp, err := serve(ctx, svc, *req.(*Req))
			return resp, err
		},
	}
}

// The control calls. A success's HTTP status follows from the route's
// method: POST answers 201, DELETE 204 with no body, GET 200 — except a
// Health whose status is not "ok", which answers 503.
var (
	callCreate = declare("POST /v1/sessions", 1, MaxBodyBytes,
		func(_ context.Context, svc Service, req CreateSessionRequest) (SessionInfo, error) {
			return svc.CreateSession(req)
		})
	callGet = declare("GET /v1/sessions/{id}", 2, MaxBodyBytes,
		func(_ context.Context, svc Service, req SessionRef) (SessionInfo, error) {
			return svc.GetSession(req.ID)
		})
	callDelete = declare("DELETE /v1/sessions/{id}", 3, MaxBodyBytes,
		func(_ context.Context, svc Service, req SessionRef) (struct{}, error) {
			return struct{}{}, svc.DeleteSession(req.ID)
		})
	callList = declare("GET /v1/sessions", 4, MaxBodyBytes,
		func(_ context.Context, svc Service, req ListSessionsRequest) (SessionPage, error) {
			return svc.ListSessions(req)
		})
	callExport = declare("GET /v1/sessions/{id}/export", 5, MaxBodyBytes,
		func(ctx context.Context, svc Service, req SessionRef) (SessionExport, error) {
			return svc.ExportSession(ctx, req.ID)
		})
	callImport = declare("POST /v1/sessions/import", 6, 64<<20,
		func(_ context.Context, svc Service, exp SessionExport) (SessionInfo, error) {
			return svc.ImportSession(exp)
		})
	callStats = declare("GET /statsz", 7, MaxBodyBytes,
		func(_ context.Context, svc Service, _ struct{}) (Stats, error) {
			return svc.Stats(), nil
		})
	callHealth = declare("GET /healthz", 8, MaxBodyBytes,
		func(_ context.Context, svc Service, _ struct{}) (Health, error) {
			return svc.Health(), nil
		})
)

// Calls is the control plane, declared once: the HTTP routes, the RPC
// dispatch and both clients are derived from it. Adding a call means
// adding an entry here.
var Calls = []*Call{callCreate, callGet, callDelete, callList, callExport, callImport, callStats, callHealth}

// DecodeJSON is every transport's request decoder. It decodes body into
// v strictly: exactly one JSON value, at most limit bytes, no field v
// does not declare. A failure is a CodeInvalidArgument error.
func DecodeJSON(body io.Reader, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return Errf(CodeInvalidArgument, "api: bad request body: "+err.Error())
	}
	return nil
}

// ControlClient implements Client's control calls once for every
// transport. A transport's client embeds it, sets Do, and adds the step
// methods itself.
type ControlClient struct {
	// Do carries one call over the transport: it sends in and decodes
	// the reply into out (nil discards it). A reply that reports a
	// failure is returned as an *Error.
	Do func(ctx context.Context, call *Call, in, out any) error
}

func roundTrip[Resp any](ctx context.Context, c ControlClient, call *Call, in any) (Resp, error) {
	var out Resp
	err := c.Do(ctx, call, in, &out)
	return out, err
}

// CreateSession creates a session and returns its initial state.
func (c ControlClient) CreateSession(ctx context.Context, req CreateSessionRequest) (SessionInfo, error) {
	return roundTrip[SessionInfo](ctx, c, callCreate, req)
}

// Session returns a session's current state.
func (c ControlClient) Session(ctx context.Context, id string) (SessionInfo, error) {
	return roundTrip[SessionInfo](ctx, c, callGet, SessionRef{ID: id})
}

// DeleteSession closes a session.
func (c ControlClient) DeleteSession(ctx context.Context, id string) error {
	return c.Do(ctx, callDelete, SessionRef{ID: id}, nil)
}

// ListSessions fetches one page of the session list.
func (c ControlClient) ListSessions(ctx context.Context, req ListSessionsRequest) (SessionPage, error) {
	return roundTrip[SessionPage](ctx, c, callList, req)
}

// ExportSession fetches a session's complete migratable state.
func (c ControlClient) ExportSession(ctx context.Context, id string) (SessionExport, error) {
	return roundTrip[SessionExport](ctx, c, callExport, SessionRef{ID: id})
}

// ImportSession registers an exported session on the addressed instance.
func (c ControlClient) ImportSession(ctx context.Context, exp SessionExport) (SessionInfo, error) {
	return roundTrip[SessionInfo](ctx, c, callImport, exp)
}

// Stats returns the service counters.
func (c ControlClient) Stats(ctx context.Context) (Stats, error) {
	return roundTrip[Stats](ctx, c, callStats, struct{}{})
}

// Health reports liveness: CodeUnavailable unless the status is "ok".
func (c ControlClient) Health(ctx context.Context) error {
	h, err := roundTrip[Health](ctx, c, callHealth, struct{}{})
	if err == nil && h.Status != "ok" {
		err = Errf(CodeUnavailable, "api: health status "+h.Status)
	}
	return err
}
