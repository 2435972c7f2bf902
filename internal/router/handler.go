package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"priste/internal/api"
	"priste/internal/server"
)

// Handler returns the router's HTTP transport: the same /v1 session
// codec a pristed serves, the control calls of api.Calls among it (so
// any priste client talks to the router unchanged), plus the fleet
// admin surface:
//
//	GET  /v1/fleet            fleet status (the /statsz fleet section)
//	POST /v1/fleet/rebalance  drain ({"backend":"name"}) or undrain
//	                          ({"backend":"name","undrain":true}) a
//	                          member and re-home its sessions
//	GET  /metricsz            priste_router_* metrics
func (rt *Router) Handler() http.Handler {
	return server.TraceHandler(rt.routes(), func(d time.Duration) {
		rt.metrics.requestSeconds.Observe(d)
	})
}

// routes returns the request router Handler serves, without the trace
// middleware.
func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	server.RegisterAPIRoutes(mux, rt, func(total, _, _ time.Duration) {
		rt.metrics.observeStep(total)
	})
	mux.HandleFunc("GET /v1/fleet", rt.handleFleetStatus)
	mux.HandleFunc("POST /v1/fleet/rebalance", rt.handleRebalance)
	mux.Handle("GET /metricsz", rt.metrics.reg.Handler())
	return mux
}

func (rt *Router) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, rt.fleetStats())
}

// rebalanceRequest is the body of POST /v1/fleet/rebalance.
type rebalanceRequest struct {
	Backend string `json:"backend"`
	Undrain bool   `json:"undrain,omitempty"`
}

func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req rebalanceRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, fmt.Errorf("router: bad rebalance body: %w", err))
		return
	}
	if req.Backend == "" {
		server.WriteError(w, api.Errf(api.CodeInvalidArgument, "router: missing backend name"))
		return
	}
	var (
		rep RebalanceReport
		err error
	)
	if req.Undrain {
		rep, err = rt.Undrain(req.Backend)
	} else {
		rep, err = rt.Drain(req.Backend)
	}
	if err != nil {
		server.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, rep)
}
