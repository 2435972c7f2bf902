// Package obs is the zero-dependency observability core shared by the
// priste service: an atomic metric registry with Prometheus text
// exposition (registry.go), lock-free log-linear latency histograms
// (histogram.go), runtime gauges (runtime.go), and — here — trace-ID
// generation/propagation plus slog construction helpers.
//
// Trace IDs are opaque uint64s. They enter the service either via the
// TraceHeader HTTP header or the trace field of an RPC frame, ride the
// request context through the worker pool, and come back out in slow-step
// logs and response headers, tying a client-observed latency to the
// server-side stage breakdown for that exact step.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync/atomic"
)

// TraceHeader is the HTTP request/response header carrying a trace ID in
// the hexadecimal form produced by FormatTrace.
const TraceHeader = "X-Priste-Trace"

// traceSeq makes generated trace IDs unique within the process even if
// the random source misbehaves; seeded once with random bits.
var traceSeq = func() *atomic.Uint64 {
	var s atomic.Uint64
	var b [8]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err == nil {
		s.Store(binary.LittleEndian.Uint64(b[:]))
	}
	return &s
}()

// NewTraceID returns a fresh non-zero trace ID. Zero is reserved to mean
// "no trace" on the wire.
func NewTraceID() uint64 {
	for {
		if id := traceSeq.Add(0x9e3779b97f4a7c15); id != 0 { // golden-ratio increment
			return id
		}
	}
}

// FormatTrace renders a trace ID as 16 lowercase hex digits.
func FormatTrace(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTrace parses a FormatTrace-shaped string; malformed or empty input
// yields 0 ("no trace") rather than an error so untraced callers cost
// nothing.
func ParseTrace(s string) uint64 {
	if s == "" {
		return 0
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

type ctxKey int

const (
	traceKey ctxKey = iota
	transportKey
)

// WithTrace returns ctx carrying the trace ID (0 stores nothing).
func WithTrace(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceKey, id)
}

// TraceFrom returns the trace ID carried by ctx, or 0.
func TraceFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(traceKey).(uint64)
	return id
}

// WithTransport returns ctx tagged with the ingress transport name
// ("http", "rpc"); stage metrics attribute pool-side work to it.
func WithTransport(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, transportKey, name)
}

// TransportFrom returns the transport tag carried by ctx, or "".
func TransportFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	name, _ := ctx.Value(transportKey).(string)
	return name
}

// Log formats accepted by NewLogger.
const (
	LogText = "text"
	LogJSON = "json"
)

// NewLogger builds a slog.Logger writing to w in the given format
// ("text" or "json") at the given minimum level. An unknown format falls
// back to text; a nil writer yields a discard logger.
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	if w == nil {
		return slog.New(slog.DiscardHandler)
	}
	opts := &slog.HandlerOptions{Level: level}
	if format == LogJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLevel maps a -log-level flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
	}
	return l, nil
}
