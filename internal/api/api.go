// Package api is the transport-neutral core of the pristed service
// surface: the versioned request/response types, the canonical error
// codes, and the Service/Client interfaces every front-end shares.
// Transports — the HTTP/JSON handlers and typed client in
// internal/server, the binary RPC pair in internal/rpc, the pristectl
// CLI — are thin codecs over this package: they decode bytes into these
// types, call a Service, and encode the result (or the typed error)
// back out. A control call is declared once, in Calls: its HTTP route,
// its RPC method byte, its body cap and the Service method that serves
// it. Both transports' handlers and ControlClient, the control half of
// both clients, are derived from that table, and DecodeJSON is their
// one request decoder. Growing the API means growing this package; a
// transport only ever learns new encodings.
package api

import (
	"context"
	"fmt"
	"math"
	"time"

	"priste/internal/core"
	"priste/internal/store"
)

// V1 is the current API version. It prefixes every HTTP route ("/v1/...")
// and is the Version stamped into session exports.
const V1 = 1

// MaxSessionIDLen caps client-supplied session ids. The durable store
// names files by the hex of the id (double its length), so the cap
// keeps filenames under every mainstream filesystem's 255-byte
// NAME_MAX; it applies to in-memory deployments too so behaviour does
// not diverge by store.
const MaxSessionIDLen = 120

// List pagination bounds.
const (
	DefaultListLimit = 100
	MaxListLimit     = 1000
)

// CreateSessionRequest is the body of POST /v1/sessions. Zero-valued
// fields inherit the server defaults; a nil Seed draws a random one.
type CreateSessionRequest struct {
	// ID optionally fixes the session id (e.g. a user id); a live
	// duplicate is rejected with CodeAlreadyExists.
	ID string `json:"id,omitempty"`
	// Seed fixes the session RNG for reproducible releases.
	Seed      *int64   `json:"seed,omitempty"`
	Epsilon   float64  `json:"epsilon,omitempty"`
	Alpha     float64  `json:"alpha,omitempty"`
	Mechanism string   `json:"mechanism,omitempty"`
	Delta     *float64 `json:"delta,omitempty"`
	Events    []string `json:"events,omitempty"`
}

// Validate checks the transport-independent invariants; the service
// applies its own defaults and world-dependent validation on top.
func (r CreateSessionRequest) Validate() error {
	if len(r.ID) > MaxSessionIDLen {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: session id longer than %d bytes", MaxSessionIDLen))
	}
	if r.Epsilon < 0 || math.IsNaN(r.Epsilon) || math.IsInf(r.Epsilon, 0) {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: epsilon %g must be a finite non-negative number", r.Epsilon))
	}
	if r.Alpha < 0 || math.IsNaN(r.Alpha) || math.IsInf(r.Alpha, 0) {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: alpha %g must be a finite non-negative number", r.Alpha))
	}
	if r.Delta != nil && (*r.Delta < 0 || *r.Delta >= 1 || math.IsNaN(*r.Delta)) {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: delta %g outside [0,1)", *r.Delta))
	}
	return nil
}

// SessionInfo is the body of GET /v1/sessions/{id}, one entry of the
// session list, and the create/import response. T is the next timestamp
// to be released (steps served so far).
type SessionInfo struct {
	ID        string    `json:"id"`
	T         int       `json:"t"`
	Epsilon   float64   `json:"epsilon"`
	Alpha     float64   `json:"alpha"`
	Mechanism string    `json:"mechanism"`
	Events    []string  `json:"events"`
	Created   time.Time `json:"created"`
	LastUsed  time.Time `json:"last_used"`
	Queued    int       `json:"queued"`
}

// StepRequest is the body of POST /v1/sessions/{id}/step.
type StepRequest struct {
	// Loc is the user's true location (0-based row-major grid state).
	Loc int `json:"loc"`
}

// StepResponse mirrors core.StepResult: one certified release.
type StepResponse struct {
	// SessionID identifies the session in batch responses.
	SessionID string `json:"session_id,omitempty"`
	T         int    `json:"t"`
	// Obs is the released (perturbed) location.
	Obs int `json:"obs"`
	// Alpha is the final budget used; 0 for the uniform fallback.
	Alpha                  float64 `json:"alpha"`
	Attempts               int     `json:"attempts"`
	ConservativeRejections int     `json:"conservative_rejections"`
	Uniform                bool    `json:"uniform"`
	CheckMicros            float64 `json:"check_us"`
	// Error and Code report per-item failures in batch responses; both
	// are empty on success.
	Error string `json:"error,omitempty"`
	Code  Code   `json:"code,omitempty"`
}

// Err returns the item's inline failure as a typed error, or nil.
func (r StepResponse) Err() error {
	if r.Error == "" && r.Code == "" {
		return nil
	}
	return &Error{Code: r.Code, Message: r.Error}
}

// FailedStep renders an error as an inline batch item failure.
func FailedStep(sessionID string, err error) StepResponse {
	e := ErrorOf(err)
	return StepResponse{SessionID: sessionID, Error: e.Message, Code: e.Code}
}

// BatchStepItem is one entry of POST /v1/step.
type BatchStepItem struct {
	SessionID string `json:"session_id"`
	Loc       int    `json:"loc"`
}

// BatchStepRequest is the body of POST /v1/step: a multi-user ingest
// batch. Items for the same session are applied in slice order.
type BatchStepRequest struct {
	Steps []BatchStepItem `json:"steps"`
}

// BatchStepResponse is the body of the batch response; Results[i]
// corresponds to Steps[i].
type BatchStepResponse struct {
	Results []StepResponse `json:"results"`
}

// ListSessionsRequest is the query of GET /v1/sessions: a page of up to
// Limit sessions with ids lexicographically after Cursor.
type ListSessionsRequest struct {
	// Limit caps the page size; 0 means DefaultListLimit, and anything
	// above MaxListLimit is clamped to it.
	Limit int `json:"limit,omitempty"`
	// Cursor is the NextCursor of the previous page ("" for the first).
	Cursor string `json:"cursor,omitempty"`
}

// Normalize applies the pagination defaults and bounds.
func (r ListSessionsRequest) Normalize() (ListSessionsRequest, error) {
	if r.Limit < 0 {
		return r, Errf(CodeInvalidArgument, fmt.Sprintf("api: negative list limit %d", r.Limit))
	}
	if r.Limit == 0 {
		r.Limit = DefaultListLimit
	}
	if r.Limit > MaxListLimit {
		r.Limit = MaxListLimit
	}
	return r, nil
}

// SessionPage is one page of the session list, ordered by id. Pagination
// is a live iteration: sessions created or removed between pages may be
// skipped or repeated, exactly like any keyset cursor over churning data.
type SessionPage struct {
	Sessions []SessionInfo `json:"sessions"`
	// NextCursor, when set, fetches the next page; empty means this page
	// ends the listing.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ReleaseTag is one committed release on the wire: math.Float64bits of
// the certified budget (0 for the uniform fallback) and the released
// observation.
type ReleaseTag = core.ReleaseTag

// SessionExport is a session's complete migratable state — the payload
// of GET /v1/sessions/{id}/export and POST /v1/sessions/import. It is the
// durable store's ledger with a version stamp: the session identity
// (whose World names the world model the history was certified against;
// the importing instance must run the same one) and the committed
// release-tag history with its rolling fingerprint and the serialised
// session RNG. Both parts are embedded, so their fields are the export's
// top-level JSON keys. An importing instance replays the tags through
// its own compiled plan, verifying the world tag and the fingerprint
// chain, so a migrated session continues seed-for-seed identically to
// an unmigrated one.
type SessionExport struct {
	// Version is the export format version (V1).
	Version int `json:"version"`
	store.SessionMeta
	core.Snapshot
}

// Validate checks the structural invariants of an export before the
// importing service replays it.
func (e SessionExport) Validate() error {
	if e.Version != V1 {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: unsupported export version %d (want %d)", e.Version, V1))
	}
	if e.ID == "" {
		return Errf(CodeInvalidArgument, "api: export carries no session id")
	}
	if len(e.ID) > MaxSessionIDLen {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: session id longer than %d bytes", MaxSessionIDLen))
	}
	if e.World == "" {
		return Errf(CodeInvalidArgument, "api: export carries no world tag")
	}
	if e.T != len(e.Tags) {
		return Errf(CodeInvalidArgument, fmt.Sprintf("api: export T=%d but %d tags", e.T, len(e.Tags)))
	}
	return nil
}

// Health is the liveness document of GET /healthz. Status is "ok" for a
// serving instance and "draining" (HTTP 503) once graceful shutdown has
// begun — load balancers stop routing while in-flight work flushes.
type Health struct {
	Status   string `json:"status"`
	Sessions int64  `json:"sessions"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// Version is the build's module version (from debug.ReadBuildInfo;
	// "(devel)" for unstamped local builds) and GoVersion the toolchain
	// that built it.
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// RowKernel names the body of mat's row primitive this process
	// selected at start-up from CPUID: "avx2" or "portable". Releases
	// are bit-identical under both; only the speed differs.
	RowKernel string `json:"row_kernel,omitempty"`
}

// Service is the versioned, transport-neutral service surface. Every
// front-end — HTTP handlers, the binary RPC server, the CLI — drives
// exactly this interface; server.Server implements it. Methods that
// block on queued work (stepping, exporting) take a context so a
// departed caller can abandon the wait; the others complete inline.
// All errors are canonical (see ErrorOf / Code).
type Service interface {
	// CreateSession builds and registers a session, applying the
	// server's privacy defaults for absent fields.
	CreateSession(req CreateSessionRequest) (SessionInfo, error)
	// GetSession reports a session's public state.
	GetSession(id string) (SessionInfo, error)
	// DeleteSession removes and closes a session (and tombstones its
	// journal on durable deployments).
	DeleteSession(id string) error
	// Step releases one true location through a session and waits for
	// its certified release.
	Step(ctx context.Context, id string, loc int) (StepResponse, error)
	// StepBatch enqueues every item in slice order (per-session FIFO,
	// cross-session parallel) and collects the releases; per-item
	// failures are reported inline, never as a batch failure.
	StepBatch(ctx context.Context, steps []BatchStepItem) []StepResponse
	// ListSessions returns one page of live sessions ordered by id.
	ListSessions(req ListSessionsRequest) (SessionPage, error)
	// ExportSession captures a session's complete migratable state at a
	// consistent point in its step stream.
	ExportSession(ctx context.Context, id string) (SessionExport, error)
	// ImportSession registers a migrated session after verifying its
	// world tag and replaying its history (fingerprint-checked).
	ImportSession(exp SessionExport) (SessionInfo, error)
	// Stats returns the /statsz counter document.
	Stats() Stats
	// Health reports liveness.
	Health() Health
}

// AsyncStepper is an optional Service extension for transports that
// pipeline many steps per connection: StepAsync enqueues the step
// (preserving per-session FIFO order at the enqueue point) and returns
// a buffered completion channel instead of blocking, so one reader
// goroutine can keep enqueuing while earlier steps are still in flight.
// ctx is observability context — trace ID and ingress transport (see
// internal/obs) — consulted at enqueue time only; cancelling it does not
// cancel the step.
type AsyncStepper interface {
	StepAsync(ctx context.Context, id string, loc int) (<-chan StepOutcome, error)
}

// StepOutcome is one completed asynchronous step.
type StepOutcome struct {
	Resp StepResponse
	Err  error
}

// Client is the transport-neutral typed client interface: the HTTP
// client (server.Client) and the binary RPC client (rpc.Client)
// implement it identically, so callers — and the conformance tests —
// are written once against this interface and run against every
// transport.
type Client interface {
	CreateSession(ctx context.Context, req CreateSessionRequest) (SessionInfo, error)
	Session(ctx context.Context, id string) (SessionInfo, error)
	DeleteSession(ctx context.Context, id string) error
	Step(ctx context.Context, id string, loc int) (StepResponse, error)
	StepBatch(ctx context.Context, steps []BatchStepItem) ([]StepResponse, error)
	ListSessions(ctx context.Context, req ListSessionsRequest) (SessionPage, error)
	ExportSession(ctx context.Context, id string) (SessionExport, error)
	ImportSession(ctx context.Context, exp SessionExport) (SessionInfo, error)
	Stats(ctx context.Context) (Stats, error)
	Health(ctx context.Context) error
}
