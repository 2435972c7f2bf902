package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"priste/internal/api"
	"priste/internal/obs"
)

// errorBody is the JSON error envelope: the canonical code plus a
// human-readable message.
type errorBody struct {
	Error string   `json:"error"`
	Code  api.Code `json:"code,omitempty"`
}

// Handler returns the HTTP/JSON transport: a thin codec over the
// api.Service the server implements. Its routes are the control calls
// of api.Calls plus
//
//	POST   /v1/sessions/{id}/step   release one location
//	GET    /v1/sessions/{id}/stream SSE push stream of certified releases
//	POST   /v1/step                 batch multi-user ingest
//	GET    /metricsz                Prometheus-text metrics
//
// Every request is traced: a client-supplied X-Priste-Trace header
// (16 hex digits, see obs.TraceHeader) is propagated through the step
// pipeline into the slow-step logs, a missing or malformed one is
// replaced by a server-generated ID, and the effective trace is echoed
// on the response — so every response names the ID to grep the server
// logs for.
func (s *Server) Handler() http.Handler {
	return TraceHandler(s.Routes(), func(d time.Duration) {
		s.metrics.observeTransport(transportHTTP, d)
	})
}

// Routes returns the request router Handler serves, without the trace
// middleware.
func (s *Server) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	RegisterAPIRoutes(mux, s, func(total, decode, encode time.Duration) {
		s.metrics.observeServedStep(transportHTTP, total, decode, encode)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleSessionStream)
	mux.Handle("GET /metricsz", s.metrics.Handler())
	return mux
}

// TraceHandler wraps h in the transport middleware every priste HTTP
// listener shares: it adopts a well-formed client X-Priste-Trace header
// (minting a fresh trace ID otherwise), echoes the effective ID on the
// response, tags the request context with trace + transport for the
// structured logs, and reports each request's wall time to observe
// (which may be nil).
func TraceHandler(h http.Handler, observe func(time.Duration)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := obs.ParseTrace(r.Header.Get(obs.TraceHeader))
		if trace == 0 {
			trace = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, obs.FormatTrace(trace))
		ctx := obs.WithTrace(obs.WithTransport(r.Context(), "http"), trace)
		h.ServeHTTP(w, r.WithContext(ctx))
		if observe != nil {
			observe(time.Since(start))
		}
	})
}

// RegisterAPIRoutes installs the HTTP/JSON codec for the non-streaming
// api.Service surface on mux — the same routes, bodies and error
// envelope whether svc is the in-process engine (*Server) or the fleet
// router. observeStep, if non-nil, receives the total/decode/encode
// wall times of each successfully served step request.
//
// Routes registered: every call of api.Calls, the step route and the
// /v1/step batch ingest. Streaming routes and /metricsz stay with the
// caller: they depend on capabilities beyond api.Service.
func RegisterAPIRoutes(mux *http.ServeMux, svc api.Service, observeStep func(total, decode, encode time.Duration)) {
	c := &apiCodec{svc: svc, observeStep: observeStep}
	for _, call := range api.Calls {
		mux.HandleFunc(call.Route, func(w http.ResponseWriter, r *http.Request) { c.serveCall(w, r, call) })
	}
	mux.HandleFunc("POST /v1/sessions/{id}/step", c.handleStep)
	mux.HandleFunc("POST /v1/step", c.handleBatch)
}

// apiCodec is the shared HTTP/JSON request codec over an api.Service.
type apiCodec struct {
	svc         api.Service
	observeStep func(total, decode, encode time.Duration)
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError renders err through the canonical error envelope: the
// api.ErrorOf code picks the HTTP status and the body carries
// {"error": message, "code": code}.
func WriteError(w http.ResponseWriter, err error) {
	e := api.ErrorOf(err)
	WriteJSON(w, e.Code.HTTPStatus(), errorBody{Error: e.Message, Code: e.Code})
}

// serveCall serves one control call. The request is the {id} path
// segment for a SessionRef, the limit/cursor query for a list, nothing
// for a call without one, and the JSON body otherwise. A success
// answers 201 to a POST, 204 with no body to a DELETE and 200 to a GET,
// except 503 for a Health that is not "ok": a draining server (or a
// router with no reachable backend) leaves load-balancer rotation
// before its listener closes.
func (c *apiCodec) serveCall(w http.ResponseWriter, r *http.Request, call *api.Call) {
	req := call.NewRequest()
	var err error
	switch req := req.(type) {
	case *api.SessionRef:
		req.ID = r.PathValue("id")
	case *api.ListSessionsRequest:
		req.Cursor = r.URL.Query().Get("cursor")
		if raw := r.URL.Query().Get("limit"); raw != "" {
			if req.Limit, err = strconv.Atoi(raw); err != nil {
				err = api.Errf(api.CodeInvalidArgument, "server: bad limit: "+raw)
			}
		}
	case *struct{}:
	default:
		err = api.DecodeJSON(r.Body, call.Limit, req)
	}
	var resp any
	if err == nil {
		resp, err = call.Serve(r.Context(), c.svc, req)
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	switch r.Method {
	case http.MethodPost:
		WriteJSON(w, http.StatusCreated, resp)
	case http.MethodDelete:
		w.WriteHeader(http.StatusNoContent)
	default:
		status := http.StatusOK
		if h, ok := resp.(api.Health); ok && h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, resp)
	}
}

func (c *apiCodec) handleStep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req api.StepRequest
	if err := api.DecodeJSON(r.Body, api.MaxBodyBytes, &req); err != nil {
		WriteError(w, err)
		return
	}
	decode := time.Since(start)
	resp, err := c.svc.Step(r.Context(), r.PathValue("id"), req.Loc)
	if err != nil {
		if r.Context().Err() != nil {
			// Client gone; any in-flight worker completes into the
			// buffered channel. Nothing useful to write.
			return
		}
		WriteError(w, err)
		return
	}
	encStart := time.Now()
	WriteJSON(w, http.StatusOK, resp)
	if c.observeStep != nil {
		c.observeStep(time.Since(start), decode, time.Since(encStart))
	}
}

func (c *apiCodec) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchStepRequest
	if err := api.DecodeJSON(r.Body, api.MaxBodyBytes, &req); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, api.BatchStepResponse{Results: c.svc.StepBatch(r.Context(), req.Steps)})
}
