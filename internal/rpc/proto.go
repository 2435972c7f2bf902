// Package rpc is the binary transport of the pristed API: a
// length-prefixed frame protocol over a persistent TCP connection,
// designed so the hot step path pays a fixed few dozen bytes and zero
// JSON work per release while the control plane (create, list, export,
// import, stats) rides JSON payloads inside the same framing. Both ends
// are thin codecs over the transport-neutral internal/api package: the
// Server drives any api.Service and the Client implements api.Client,
// so every caller written against the shared interfaces runs unchanged
// on either transport.
//
// # Framing
//
// Every message — request or response — is one frame:
//
//	[len:4 BE][op:1][reqID:8 BE][trace:8 BE][body:len-17]
//
// len counts the bytes after the length prefix. A connection carries
// any number of concurrent requests; responses are matched to requests
// by reqID and may arrive in any order. Steps for one session keep
// their FIFO order because the server enqueues them in frame-arrival
// order before answering anything.
//
// trace is the request's observability trace ID (obs.NewTraceID); 0
// means "none supplied", in which case the server generates one. The
// server echoes the effective trace in the response frame, so a client
// that sent 0 still learns the ID its request was logged under. The
// trace carries no request semantics — it only correlates transports,
// slow-step log lines and client-side records.
//
// Request ops:
//
//	opStep: [idLen:2 BE][sessionID:idLen][loc:4 BE]  — hot path, binary
//	opCall: [method:1][JSON request body]            — control plane
//
// Response ops:
//
//	opStepOK: [t:4][obs:4][alphaBits:8][attempts:4][conservative:4]
//	          [uniform:1][checkNanos:8]  (all BE)
//	opCallOK: [JSON response body]
//	opError:  [code:1][message:utf8]     — code is api.Code.Wire()
//
// # Streaming
//
// The streaming mode turns one reqID into a long-lived step pipe with
// windowed acks; every frame of a stream carries the reqID of its
// opStreamOpen. The client advertises a window W — the maximum number
// of steps in flight (sent, release not yet consumed) — and the server
// sizes its inbox accordingly: a client that exceeds its own window is
// in protocol violation and the stream dies with opError. Within the
// window, submission is fire-and-forget; the server batches certified
// releases into opStreamAcks frames, strictly in submission order, so
// per-session FIFO is preserved end to end.
//
//	opStreamOpen:  [window:4 BE][idLen:2 BE][sessionID:idLen]  c→s
//	opStreamOK:    [t:4 BE]  — session's next timestamp         s→c
//	opStreamStep:  [loc:4 BE]                                   c→s
//	opStreamAcks:  [count:4 BE][opStepOK body × count]          s→c
//	opStreamClose: (empty) — no more steps                      c→s
//	opStreamEnd:   (empty) — every pending release acked        s→c
//
// A server that cannot enqueue a streamed step (session queue full)
// does not fail it: it waits for in-flight steps to drain and
// retries — backpressure propagates to the client through withheld
// acks and, once the window fills, a blocked Send. An opError frame
// carrying a stream's reqID is terminal for that stream (and only
// that stream); the connection and its other streams live on.
package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"priste/internal/api"
)

// Frame ops. Part of the wire protocol: never renumber, only append.
const (
	opStep   byte = 1
	opCall   byte = 2
	opStepOK byte = 3
	opCallOK byte = 4
	opError  byte = 5

	opStreamOpen  byte = 6
	opStreamOK    byte = 7
	opStreamStep  byte = 8
	opStreamAcks  byte = 9
	opStreamClose byte = 10
	opStreamEnd   byte = 11
)

// Control-plane methods carried by opCall. Same stability rule.
const (
	methodCreate byte = 1
	methodGet    byte = 2
	methodDelete byte = 3
	methodList   byte = 4
	methodExport byte = 5
	methodImport byte = 6
	methodStats  byte = 7
	methodHealth byte = 8
)

// maxFrame bounds a single frame; a session export carries a whole
// release history, so the bound is generous. A peer announcing more is
// a protocol error and kills the connection.
const maxFrame = 64 << 20

// frameHeader is op + reqID + trace.
const frameHeader = 1 + 8 + 8

// appendFrame appends one framed message to buf.
func appendFrame(buf []byte, op byte, reqID, trace uint64, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameHeader+len(body)))
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = binary.BigEndian.AppendUint64(buf, trace)
	return append(buf, body...)
}

// frameChunk is the most readFrame allocates on the strength of a length
// prefix alone. Steps, acks and control calls are far smaller and take the
// one-allocation path; only session exports and imports outgrow it.
const frameChunk = 64 << 10

// readFrame reads one frame from r. The length prefix is unauthenticated,
// so it sizes nothing beyond the first frameChunk bytes: a larger frame's
// buffer grows, at most doubling, only as the announced bytes arrive — a
// peer cannot make the server hold memory it has not paid for in traffic.
func readFrame(r io.Reader) (op byte, reqID, trace uint64, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n < frameHeader || n > maxFrame {
		return 0, 0, 0, nil, fmt.Errorf("rpc: bad frame length %d", n)
	}
	msg := make([]byte, min(n, frameChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, msg[have:]); err != nil {
			return 0, 0, 0, nil, err
		}
		if have = len(msg); have == n {
			break
		}
		msg = slices.Grow(msg, min(n-have, have))
		msg = msg[:min(n, cap(msg))]
	}
	return msg[0], binary.BigEndian.Uint64(msg[1:9]), binary.BigEndian.Uint64(msg[9:17]), msg[17:], nil
}

// appendStepReq encodes an opStep body.
func appendStepReq(buf []byte, id string, loc int) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, api.Errf(api.CodeInvalidArgument, "rpc: session id too long")
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(id)))
	buf = append(buf, id...)
	return binary.BigEndian.AppendUint32(buf, uint32(int32(loc))), nil
}

// parseStepReq decodes an opStep body.
func parseStepReq(body []byte) (id string, loc int, err error) {
	if len(body) < 2 {
		return "", 0, fmt.Errorf("rpc: short step request")
	}
	n := int(binary.BigEndian.Uint16(body))
	if len(body) != 2+n+4 {
		return "", 0, fmt.Errorf("rpc: step request length %d does not match id length %d", len(body), n)
	}
	id = string(body[2 : 2+n])
	loc = int(int32(binary.BigEndian.Uint32(body[2+n:])))
	return id, loc, nil
}

// stepRespLen is the fixed opStepOK body size.
const stepRespLen = 4 + 4 + 8 + 4 + 4 + 1 + 8

// appendStepResp encodes an opStepOK body.
func appendStepResp(buf []byte, r api.StepResponse) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.T)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.Obs)))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Alpha))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.Attempts)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.ConservativeRejections)))
	var uniform byte
	if r.Uniform {
		uniform = 1
	}
	buf = append(buf, uniform)
	return binary.BigEndian.AppendUint64(buf, uint64(int64(r.CheckMicros*1e3)))
}

// parseStepResp decodes an opStepOK body.
func parseStepResp(body []byte) (api.StepResponse, error) {
	if len(body) != stepRespLen {
		return api.StepResponse{}, fmt.Errorf("rpc: step response length %d, want %d", len(body), stepRespLen)
	}
	return api.StepResponse{
		T:                      int(int32(binary.BigEndian.Uint32(body[0:]))),
		Obs:                    int(int32(binary.BigEndian.Uint32(body[4:]))),
		Alpha:                  math.Float64frombits(binary.BigEndian.Uint64(body[8:])),
		Attempts:               int(int32(binary.BigEndian.Uint32(body[16:]))),
		ConservativeRejections: int(int32(binary.BigEndian.Uint32(body[20:]))),
		Uniform:                body[24] == 1,
		CheckMicros:            float64(int64(binary.BigEndian.Uint64(body[25:]))) / 1e3,
	}, nil
}

// appendStreamOpen encodes an opStreamOpen body.
func appendStreamOpen(buf []byte, id string, window int) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, api.Errf(api.CodeInvalidArgument, "rpc: session id too long")
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(window)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(id)))
	return append(buf, id...), nil
}

// parseStreamOpen decodes an opStreamOpen body.
func parseStreamOpen(body []byte) (id string, window int, err error) {
	if len(body) < 6 {
		return "", 0, fmt.Errorf("rpc: short stream open")
	}
	window = int(int32(binary.BigEndian.Uint32(body)))
	n := int(binary.BigEndian.Uint16(body[4:]))
	if len(body) != 6+n {
		return "", 0, fmt.Errorf("rpc: stream open length %d does not match id length %d", len(body), n)
	}
	return string(body[6:]), window, nil
}

// appendStreamStep encodes an opStreamStep body.
func appendStreamStep(buf []byte, loc int) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(int32(loc)))
}

// parseStreamStep decodes an opStreamStep body.
func parseStreamStep(body []byte) (int, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("rpc: stream step length %d, want 4", len(body))
	}
	return int(int32(binary.BigEndian.Uint32(body))), nil
}

// parseStreamAcks decodes an opStreamAcks body into its releases.
func parseStreamAcks(body []byte) ([]api.StepResponse, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("rpc: short stream ack frame")
	}
	n := int(binary.BigEndian.Uint32(body))
	if n < 0 || len(body) != 4+n*stepRespLen {
		return nil, fmt.Errorf("rpc: stream ack frame length %d does not match count %d", len(body), n)
	}
	out := make([]api.StepResponse, n)
	for i := range out {
		resp, err := parseStepResp(body[4+i*stepRespLen : 4+(i+1)*stepRespLen])
		if err != nil {
			return nil, err
		}
		out[i] = resp
	}
	return out, nil
}

// appendErrResp encodes an opError body.
func appendErrResp(buf []byte, err error) []byte {
	e := api.ErrorOf(err)
	buf = append(buf, e.Code.Wire())
	return append(buf, e.Message...)
}

// parseErrResp decodes an opError body into the typed client error.
// The wire byte is the canonical code table's append-only numbering
// (api.Code.Wire), so new codes round-trip with no protocol change:
// byte 10 reconstructs api.CodeWrongBackend, which callers classify as
// retryable-after-reroute via api.RetryAfterReroute — the session
// exists but lives on a different fleet backend than the one addressed.
func parseErrResp(body []byte) *api.Error {
	if len(body) == 0 {
		return api.Errf(api.CodeInternal, "rpc: empty error frame")
	}
	return &api.Error{Code: api.CodeFromWire(body[0]), Message: string(body[1:])}
}
