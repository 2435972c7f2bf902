package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"priste/internal/core"
	"priste/internal/store"
)

// TestCodeMappingsRoundTrip: every canonical code survives both wire
// renderings — HTTP status and RPC byte — and the renderings are
// injective, so a transport can never conflate two codes.
func TestCodeMappingsRoundTrip(t *testing.T) {
	all := []Code{
		CodeInvalidArgument, CodeNotFound, CodeAlreadyExists,
		CodeSessionClosed, CodeResourceExhausted, CodeFailedPrecondition,
		CodeUnavailable, CodeDeadlineExceeded, CodeInternal,
		CodeWrongBackend,
	}
	seenStatus := map[int]Code{}
	seenWire := map[byte]Code{}
	for _, c := range all {
		if !c.Valid() {
			t.Errorf("%s not Valid", c)
		}
		st := c.HTTPStatus()
		if prev, dup := seenStatus[st]; dup {
			t.Errorf("%s and %s share HTTP status %d", prev, c, st)
		}
		seenStatus[st] = c
		if got := CodeFromHTTPStatus(st); got != c {
			t.Errorf("CodeFromHTTPStatus(%d) = %s, want %s", st, got, c)
		}
		w := c.Wire()
		if prev, dup := seenWire[w]; dup {
			t.Errorf("%s and %s share wire byte %d", prev, c, w)
		}
		seenWire[w] = c
		if got := CodeFromWire(w); got != c {
			t.Errorf("CodeFromWire(%d) = %s, want %s", w, got, c)
		}
	}
	if Code("bogus").Valid() {
		t.Error("bogus code reported valid")
	}
	if got := Code("bogus").HTTPStatus(); got != http.StatusInternalServerError {
		t.Errorf("unknown code status = %d, want 500", got)
	}
	if got := CodeFromHTTPStatus(http.StatusTeapot); got != CodeInternal {
		t.Errorf("unmapped status = %s, want internal", got)
	}
	if got := CodeFromWire(0xFF); got != CodeInternal {
		t.Errorf("unmapped wire byte = %s, want internal", got)
	}
	// The misroute code renders as 421 Misdirected Request on HTTP and
	// byte 10 on the RPC wire, and is the one code callers retry after
	// re-resolving ownership.
	if got := CodeWrongBackend.HTTPStatus(); got != http.StatusMisdirectedRequest {
		t.Errorf("wrong_backend status = %d, want 421", got)
	}
	if got := CodeWrongBackend.Wire(); got != 10 {
		t.Errorf("wrong_backend wire byte = %d, want 10", got)
	}
	if !RetryAfterReroute(Errf(CodeWrongBackend, "moved")) {
		t.Error("wrong_backend not classified retryable-after-reroute")
	}
	if RetryAfterReroute(Errf(CodeNotFound, "gone")) || RetryAfterReroute(nil) {
		t.Error("non-misroute classified retryable-after-reroute")
	}
}

// TestErrorOf covers the canonicalisation rules: typed errors keep
// their code through wrapping, context expiry becomes deadline_exceeded
// and untyped errors default to invalid_argument.
func TestErrorOf(t *testing.T) {
	if ErrorOf(nil) != nil {
		t.Error("ErrorOf(nil) != nil")
	}
	sentinel := Errf(CodeNotFound, "nope")
	if e := ErrorOf(sentinel); e != sentinel {
		t.Errorf("unwrapped sentinel re-allocated: %+v", e)
	}
	wrapped := fmt.Errorf("outer context: %w", sentinel)
	e := ErrorOf(wrapped)
	if e.Code != CodeNotFound || !strings.Contains(e.Message, "outer context") {
		t.Errorf("wrapped = %+v", e)
	}
	if !errors.Is(wrapped, sentinel) || !errors.Is(e, sentinel) {
		t.Error("errors.Is lost through wrapping/canonicalisation")
	}
	if got := CodeOf(context.DeadlineExceeded); got != CodeDeadlineExceeded {
		t.Errorf("deadline code = %s", got)
	}
	if got := CodeOf(errors.New("plain")); got != CodeInvalidArgument {
		t.Errorf("untyped code = %s", got)
	}
	if got := CodeOf(nil); got != "" {
		t.Errorf("nil code = %q", got)
	}
	// Same-code client reconstructions match server sentinels.
	if !errors.Is(&Error{Code: CodeNotFound, Message: "other text"}, sentinel) {
		t.Error("same-code errors do not match")
	}
	if errors.Is(&Error{Code: CodeInternal}, sentinel) {
		t.Error("cross-code errors match")
	}
}

func TestCreateSessionRequestValidate(t *testing.T) {
	ok := CreateSessionRequest{ID: "u", Epsilon: 0.5, Alpha: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	neg := -0.1
	for name, req := range map[string]CreateSessionRequest{
		"long id":       {ID: strings.Repeat("x", MaxSessionIDLen+1)},
		"neg epsilon":   {Epsilon: -1},
		"neg alpha":     {Alpha: -1},
		"neg delta":     {Delta: &neg},
		"delta too big": {Delta: ptr(1.0)},
	} {
		if err := req.Validate(); CodeOf(err) != CodeInvalidArgument {
			t.Errorf("%s: err = %v, want invalid_argument", name, err)
		}
	}
}

func ptr(f float64) *float64 { return &f }

func TestListNormalize(t *testing.T) {
	r, err := ListSessionsRequest{}.Normalize()
	if err != nil || r.Limit != DefaultListLimit {
		t.Fatalf("defaulted = %+v, %v", r, err)
	}
	r, err = ListSessionsRequest{Limit: MaxListLimit + 5}.Normalize()
	if err != nil || r.Limit != MaxListLimit {
		t.Fatalf("clamped = %+v, %v", r, err)
	}
	if _, err := (ListSessionsRequest{Limit: -1}).Normalize(); CodeOf(err) != CodeInvalidArgument {
		t.Fatalf("negative limit: %v", err)
	}
}

func TestSessionExportValidate(t *testing.T) {
	// Validate gates every import — including every migration the fleet
	// router performs — so the edge cases matter beyond the happy path.
	mk := func(version int, world, id string, t int, tags ...ReleaseTag) SessionExport {
		return SessionExport{Version: version, SessionMeta: store.SessionMeta{World: world, ID: id}, Snapshot: core.Snapshot{T: t, Tags: tags}}
	}
	ok := mk(V1, "w", "u", 1, ReleaseTag{Obs: 3})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid export rejected: %v", err)
	}
	// Boundary acceptances: an id exactly at the cap, and a fresh
	// zero-step session (T=0, no tags).
	atCap := mk(V1, "w", strings.Repeat("x", MaxSessionIDLen), 0)
	if err := atCap.Validate(); err != nil {
		t.Fatalf("id at MaxSessionIDLen rejected: %v", err)
	}
	fresh := mk(V1, "w", "u", 0)
	if err := fresh.Validate(); err != nil {
		t.Fatalf("zero-step export rejected: %v", err)
	}
	for name, exp := range map[string]SessionExport{
		"bad version":    mk(2, "w", "u", 0),
		"zero version":   mk(0, "w", "u", 0),
		"no id":          mk(V1, "w", "", 0),
		"oversized id":   mk(V1, "w", strings.Repeat("x", MaxSessionIDLen+1), 0),
		"no world":       mk(V1, "", "u", 0),
		"tag mismatch":   mk(V1, "w", "u", 2, ReleaseTag{}),
		"tags without t": mk(V1, "w", "u", 0, ReleaseTag{Obs: 1}),
		"t without tags": mk(V1, "w", "u", 3),
		"negative t":     mk(V1, "w", "u", -1),
	} {
		if err := exp.Validate(); CodeOf(err) != CodeInvalidArgument {
			t.Errorf("%s: err = %v, want invalid_argument", name, err)
		}
	}
}

// TestCallsTable: routes and RPC method bytes are unique, and the method
// bytes keep the values the protocol shipped with (never renumber).
func TestCallsTable(t *testing.T) {
	shipped := map[string]byte{
		"POST /v1/sessions": 1, "GET /v1/sessions/{id}": 2, "DELETE /v1/sessions/{id}": 3, "GET /v1/sessions": 4,
		"GET /v1/sessions/{id}/export": 5, "POST /v1/sessions/import": 6, "GET /statsz": 7, "GET /healthz": 8,
	}
	routes, wires := map[string]bool{}, map[byte]bool{}
	for _, c := range Calls {
		if routes[c.Route] || wires[c.Wire] {
			t.Errorf("%s: route or method byte %d declared twice", c.Route, c.Wire)
		}
		routes[c.Route], wires[c.Wire] = true, true
		if w, ok := shipped[c.Route]; ok && w != c.Wire {
			t.Errorf("%s: method byte %d, shipped as %d", c.Route, c.Wire, w)
		}
		delete(shipped, c.Route)
		if c.Limit <= 0 {
			t.Errorf("%s: body cap %d", c.Route, c.Limit)
		}
	}
	for route := range shipped {
		t.Errorf("shipped call %s is not declared", route)
	}
}

func TestDecodeJSONIsStrict(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"id":"u"}`, true},
		{" {\"id\":\"u\"} \n", true},
		{`{"id":"u","bogus":1}`, false},
		{`{"id":"u"} {"x":1}`, false},
		{`{"id":"u"}x`, false},
		{`{"id":`, false},
		{`{"id":7}`, false},
		{``, false},
		{`{"id":"` + strings.Repeat("x", 64) + `"}`, false}, // over the cap
	} {
		var ref SessionRef
		err := DecodeJSON(strings.NewReader(tc.body), 64, &ref)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok = %v", tc.body, err, tc.ok)
		}
		if err != nil && (CodeOf(err) != CodeInvalidArgument || !strings.HasPrefix(err.Error(), "api: bad request body: ")) {
			t.Errorf("%q: %v is not the decoder's invalid_argument", tc.body, err)
		}
	}
}
