package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/mat"
	"priste/internal/obs"
)

// syncBuffer is a goroutine-safe log sink: pool workers emit slow-step
// warnings concurrently with the test's assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceRoundTrip: a client-supplied trace ID must survive the whole
// pipeline — client context, transport encoding (HTTP header / RPC
// frame field), enqueue, worker — and come out in the server's
// slow-step log line with the right transport attribution. SlowStep of
// 1ns makes every step "slow", turning the log into the test probe.
func TestTraceRoundTrip(t *testing.T) {
	var logBuf syncBuffer
	mkcfg := func(t *testing.T) Config {
		cfg := testConfig()
		cfg.SlowStep = time.Nanosecond
		level, err := obs.ParseLevel("warn")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Logger = obs.NewLogger(&logBuf, obs.LogJSON, level)
		return cfg
	}
	forEachTransport(t, mkcfg, func(t *testing.T, srv *Server, client api.Client) {
		trace := obs.NewTraceID()
		ctx := obs.WithTrace(context.Background(), trace)
		if _, err := client.CreateSession(ctx, CreateSessionRequest{ID: "traced"}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Step(ctx, "traced", 3); err != nil {
			t.Fatal(err)
		}
		want := obs.FormatTrace(trace)
		// The slow-step warning is written after the step's response is
		// delivered, so poll for it.
		waitFor(t, func() bool { return strings.Contains(logBuf.String(), want) })
		// The line carrying our trace must attribute the step to the
		// transport under test (the subtest name).
		transport := t.Name()[strings.LastIndexByte(t.Name(), '/')+1:]
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if !strings.Contains(line, want) {
				continue
			}
			var entry map[string]any
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatalf("slow-step line is not JSON: %q: %v", line, err)
			}
			if entry["transport"] != transport {
				t.Fatalf("slow-step transport = %v, want %q (line %q)", entry["transport"], transport, line)
			}
			if entry["session"] != "traced" {
				t.Fatalf("slow-step session = %v (line %q)", entry["session"], line)
			}
			return
		}
		t.Fatalf("no slow-step line carries trace %s:\n%s", want, logBuf.String())
	})
}

// TestHTTPTraceHeader: the HTTP transport echoes the effective trace —
// the client's when supplied and well-formed, a server-generated one
// otherwise.
func TestHTTPTraceHeader(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(obs.TraceHeader, "00000000deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "00000000deadbeef" {
		t.Fatalf("trace echo = %q, want the supplied ID", got)
	}

	// Absent or malformed → a fresh, well-formed, nonzero ID.
	for _, supplied := range []string{"", "not-hex!"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if supplied != "" {
			req.Header.Set(obs.TraceHeader, supplied)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get(obs.TraceHeader)
		if obs.ParseTrace(got) == 0 {
			t.Fatalf("supplied %q: response trace %q is not a valid generated ID", supplied, got)
		}
	}
}

// TestHealthzDraining: /healthz flips to 503 + "draining" once graceful
// shutdown starts, and reports uptime and build info while healthy.
func TestHealthzDraining(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1 // no pool: nothing to drain, Shutdown won't block
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func() (int, api.Health) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h api.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	code, h := get()
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy probe = %d %q", code, h.Status)
	}
	if h.UptimeSeconds < 0 || h.Version == "" || h.GoVersion == "" || h.RowKernel != mat.RowKernel() {
		t.Fatalf("health missing build info: %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, h = get()
	if code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining probe = %d %q, want 503 draining", code, h.Status)
	}
}

// TestMetricsEndpoint drives real steps over HTTP and asserts the
// Prometheus exposition carries the series the README documents, with
// counts that match the work done.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, nil)

	ctx := context.Background()
	if _, err := client.CreateSession(ctx, CreateSessionRequest{ID: "m"}); err != nil {
		t.Fatal(err)
	}
	const steps = 5
	for i := 0; i < steps; i++ {
		if _, err := client.Step(ctx, "m", i); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"priste_steps_served_total 5",
		// Five all-miss steps: each folds in the one commit before it.
		"priste_engine_rebuilt_commits_total 4",
		"priste_sessions_live 1",
		"priste_sessions_created_total 1",
		`priste_step_served_seconds_count{transport="http"} 5`,
		`priste_step_stage_seconds_count{stage="decode",transport="http"} 5`,
		`priste_step_stage_seconds_count{stage="queue_wait",transport="http"} 5`,
		`priste_step_stage_seconds_count{stage="encode",transport="http"} 5`,
		"# TYPE priste_step_stage_seconds histogram",
		"# TYPE priste_steps_served_total counter",
		"priste_plans_live 1",
		"priste_cert_cache_hits_total",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every step ran the engine exactly once: the per-transport commit
	// histograms (hit + miss) must count 5 total.
	hitMiss := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `priste_step_stage_seconds_count{stage="commit_`) && strings.Contains(line, `transport="http"`) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			hitMiss += int(v)
		}
	}
	if hitMiss != steps {
		t.Errorf("commit hit+miss count = %d, want %d\n%s", hitMiss, steps, body)
	}
}
