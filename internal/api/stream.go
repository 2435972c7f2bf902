package api

import "context"

// Streaming step pipeline.
//
// A StepStream is a windowed, order-preserving pipe into one session:
// the client fire-and-forgets true locations with Send and consumes
// certified releases with Recv, at most `window` steps in flight
// between the two. When the window is exhausted Send blocks
// (backpressure) until a release is consumed — a streaming client is
// never answered with a per-call 429. Releases arrive in exactly the
// order the locations were sent; a stream is the session's FIFO queue
// made visible end to end.
//
// Streams are RPC-only: the RPC client multiplexes stream frames over
// its persistent connection. HTTP callers send many steps per request
// through the batch endpoint POST /v1/step instead. Push-style
// observation (releases without driving steps) is the SSE endpoint GET
// /v1/sessions/{id}/stream.

const (
	// DefaultStreamWindow is the in-flight step window used when a
	// client passes window <= 0.
	DefaultStreamWindow = 64
	// MaxStreamWindow bounds the client-advertised window; servers
	// reject larger advertisements rather than silently clamping,
	// since the client relies on its window for flow control.
	MaxStreamWindow = 4096
)

// StepStream pumps steps into one session and yields its certified
// releases in FIFO order. Send and Recv may be called concurrently
// (one goroutine each); neither is safe for concurrent use with
// itself.
type StepStream interface {
	// Send submits the next true location. It blocks while the
	// stream window is full and returns the stream's terminal error
	// once the stream is dead.
	Send(loc int) error
	// Recv returns the next certified release in step order. After
	// CloseSend it returns io.EOF once every pending release has
	// been consumed; otherwise a terminal *Error ends the stream.
	Recv() (StepResponse, error)
	// CloseSend ends the input side. Releases for already-sent
	// steps still arrive; Recv drains them and then returns io.EOF.
	CloseSend() error
	// Close aborts the stream and releases its resources. Safe to
	// call at any time, including after CloseSend.
	Close() error
}

// StreamClient is the optional Client extension for streaming ingest.
// The RPC client implements it; the HTTP client does not.
type StreamClient interface {
	StreamSteps(ctx context.Context, sessionID string, window int) (StepStream, error)
}
