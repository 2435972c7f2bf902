package server

import (
	"encoding/json"
	"fmt"
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

// maxBodyBytes bounds ordinary request bodies; imports carry a whole
// release history, so they get a larger cap of their own.
const (
	maxBodyBytes       = 1 << 20
	maxImportBodyBytes = 64 << 20
)

// Handler returns the HTTP/JSON transport: a thin codec over the
// api.Service the server implements.
//
//	POST   /v1/sessions             create a session
//	GET    /v1/sessions             list sessions (limit/cursor pagination)
//	GET    /v1/sessions/{id}        session state
//	DELETE /v1/sessions/{id}        close a session
//	POST   /v1/sessions/{id}/step   release one location
//	GET    /v1/sessions/{id}/stream SSE push stream of certified releases
//	GET    /v1/sessions/{id}/export export a session for migration
//	POST   /v1/sessions/import      import a migrated session
//	POST   /v1/step                 batch multi-user ingest
//	GET    /healthz                 liveness (503 while draining)
//	GET    /statsz                  service counters
//	GET    /metricsz                Prometheus-text metrics
//
// Every request is traced: a client-supplied X-Priste-Trace header
// (16 hex digits, see obs.TraceHeader) is propagated through the step
// pipeline into the slow-step logs, a missing or malformed one is
// replaced by a server-generated ID, and the effective trace is echoed
// on the response — so every response names the ID to grep the server
// logs for.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	RegisterAPIRoutes(mux, s, func(total, decode, encode time.Duration) {
		s.metrics.observeServedStep(transportHTTP, total, decode, encode)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleSessionStream)
	mux.Handle("GET /metricsz", s.metrics.Handler())
	return TraceHandler(mux, func(d time.Duration) {
		s.metrics.observeTransport(transportHTTP, d)
	})
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
// Routes registered: the /v1/sessions CRUD + step + export/import set,
// /v1/step batch ingest, /healthz and /statsz. Streaming routes and
// /metricsz stay with the caller: they depend on capabilities beyond
// api.Service.
func RegisterAPIRoutes(mux *http.ServeMux, svc api.Service, observeStep func(total, decode, encode time.Duration)) {
	c := &apiCodec{svc: svc, observeStep: observeStep}
	mux.HandleFunc("POST /v1/sessions", c.handleCreate)
	mux.HandleFunc("GET /v1/sessions", c.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", c.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", c.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/step", c.handleStep)
	mux.HandleFunc("GET /v1/sessions/{id}/export", c.handleExport)
	mux.HandleFunc("POST /v1/sessions/import", c.handleImport)
	mux.HandleFunc("POST /v1/step", c.handleBatch)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /statsz", c.handleStats)
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

func writeError(w http.ResponseWriter, err error) { WriteError(w, err) }

func decodeJSON(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

func (c *apiCodec) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := decodeJSON(r, &req, maxBodyBytes); err != nil {
		WriteError(w, err)
		return
	}
	info, err := c.svc.CreateSession(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, info)
}

func (c *apiCodec) handleList(w http.ResponseWriter, r *http.Request) {
	req := api.ListSessionsRequest{Cursor: r.URL.Query().Get("cursor")}
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			WriteError(w, api.Errf(api.CodeInvalidArgument, "server: bad limit: "+raw))
			return
		}
		req.Limit = n
	}
	page, err := c.svc.ListSessions(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, page)
}

func (c *apiCodec) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := c.svc.GetSession(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (c *apiCodec) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := c.svc.DeleteSession(r.PathValue("id")); err != nil {
		WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *apiCodec) handleStep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req api.StepRequest
	if err := decodeJSON(r, &req, maxBodyBytes); err != nil {
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
	if err := decodeJSON(r, &req, maxBodyBytes); err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, api.BatchStepResponse{Results: c.svc.StepBatch(r.Context(), req.Steps)})
}

func (c *apiCodec) handleExport(w http.ResponseWriter, r *http.Request) {
	exp, err := c.svc.ExportSession(r.Context(), r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, exp)
}

func (c *apiCodec) handleImport(w http.ResponseWriter, r *http.Request) {
	var exp api.SessionExport
	if err := decodeJSON(r, &exp, maxImportBodyBytes); err != nil {
		WriteError(w, err)
		return
	}
	info, err := c.svc.ImportSession(exp)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, info)
}

func (c *apiCodec) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := c.svc.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		// "draining": graceful shutdown in progress (or, on a router, no
		// reachable backends). 503 pulls the instance out of
		// load-balancer rotation before the listener closes.
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}

func (c *apiCodec) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, c.svc.Stats())
}
