package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/obs"
)

// Server serves the binary RPC protocol over any api.Service. One
// Server may serve many listeners and connections; each connection is a
// persistent session stream whose step frames are enqueued in arrival
// order (preserving per-session FIFO) while control calls and step
// completions run concurrently.
type Server struct {
	svc api.Service

	// Observe, when set before Serve, receives the service time of every
	// request served on this transport (the /statsz per-transport
	// section; see server.Server.ObserveRPC).
	Observe func(time.Duration)
	// ObserveStep, when set before Serve, receives the end-to-end, frame
	// decode and response encode times of every successfully served step
	// request (see server.Server.ObserveRPCStep). Streamed steps are
	// reported too, measured from submission to ack-batch append.
	ObserveStep func(total, decode, encode time.Duration)
	// OnStreamOpen / OnStreamClose, when set before Serve, bracket the
	// lifetime of every step stream (server.Server wires them to the
	// priste_stream_* gauges).
	OnStreamOpen  func(sessionID string)
	OnStreamClose func(sessionID string)
	// ObserveStreamWindow, when set before Serve, receives window-
	// occupancy deltas: +1 when a streamed step is submitted to the
	// service, -1 when its release is acked (or the stream dies). The
	// running sum is the stream's in-flight depth.
	ObserveStreamWindow func(sessionID string, delta int)
	// ObserveStreamAcks, when set before Serve, receives the size of
	// every flushed ack batch.
	ObserveStreamAcks func(n int)

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewServer returns an RPC server over svc.
func NewServer(svc api.Service) *Server {
	return &Server{
		svc:       svc,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on lis until the listener fails or the
// server closes. It blocks; run it in a goroutine next to the HTTP
// listener. Returns nil after Close.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("rpc: server closed")
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops every listener and connection and waits for the per-
// connection readers to exit. In-flight steps complete inside the
// service (and are journaled on durable deployments); only their
// responses are dropped with the connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for lis := range s.listeners {
		lis.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// connWriter serialises response frames onto one connection.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func (w *connWriter) send(op byte, reqID, trace uint64, body []byte) {
	w.mu.Lock()
	w.buf = appendFrame(w.buf[:0], op, reqID, trace, body)
	_, _ = w.conn.Write(w.buf)
	w.mu.Unlock()
}

func (s *Server) observe(start time.Time) {
	if s.Observe != nil {
		s.Observe(time.Since(start))
	}
}

// handleConn is the per-connection reader loop. Step frames are
// enqueued synchronously (fixing their per-session FIFO position) with
// only the completion wait handed to a goroutine; control calls run in
// their own goroutine so a slow plan compile or export never blocks the
// step stream.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// ctx outlives individual requests and is cancelled with the
	// connection: a Step blocked on a dead peer must not leak forever.
	// Every request it spawns is tagged as RPC ingress for the per-
	// transport stage metrics.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = obs.WithTransport(ctx, "rpc")
	w := &connWriter{conn: conn}
	br := bufio.NewReaderSize(conn, 32<<10)
	stepper, hasAsync := s.svc.(api.AsyncStepper)
	// Open streams on this connection, keyed by the reqID of their
	// opStreamOpen. The map and every inbox push belong to this reader
	// goroutine; pumps signal back only through the dead flag.
	streams := make(map[uint64]*serverStream)
	for {
		op, reqID, trace, body, err := readFrame(br)
		if err != nil {
			return // peer gone or protocol error: drop the connection
		}
		start := time.Now()
		if trace == 0 {
			// No client-supplied trace: generate one so the slow-step log
			// line and the echoed response frame still correlate.
			trace = obs.NewTraceID()
		}
		rctx := obs.WithTrace(ctx, trace)
		switch op {
		case opStep:
			id, loc, err := parseStepReq(body)
			if err != nil {
				s.fail(w, reqID, trace, start, err)
				continue
			}
			if hasAsync {
				ch, err := stepper.StepAsync(rctx, id, loc)
				if err != nil {
					s.fail(w, reqID, trace, start, err)
					continue
				}
				decode := time.Since(start)
				go func(reqID, trace uint64, start time.Time, decode time.Duration) {
					select {
					case out := <-ch:
						if out.Err != nil {
							s.fail(w, reqID, trace, start, out.Err)
							return
						}
						encStart := time.Now()
						w.send(opStepOK, reqID, trace, appendStepResp(nil, out.Resp))
						s.observeStep(start, decode, time.Since(encStart))
					case <-ctx.Done():
					}
				}(reqID, trace, start, decode)
			} else {
				// Without StepAsync the only way to preserve pipelined
				// same-session FIFO order is to serve the step before
				// reading the next frame. server.Server implements
				// StepAsync; router.Router does not, so behind
				// pristerouter every unary step is served here, one at
				// a time per connection.
				decode := time.Since(start)
				resp, err := s.svc.Step(rctx, id, loc)
				if err != nil {
					s.fail(w, reqID, trace, start, err)
					continue
				}
				encStart := time.Now()
				w.send(opStepOK, reqID, trace, appendStepResp(nil, resp))
				s.observeStep(start, decode, time.Since(encStart))
			}
		case opCall:
			if len(body) == 0 {
				s.fail(w, reqID, trace, start, api.Errf(api.CodeInvalidArgument, "rpc: empty call frame"))
				continue
			}
			method, payload := body[0], body[1:]
			go func(reqID, trace uint64, start time.Time) {
				resp, err := s.dispatch(rctx, method, payload)
				if err == nil && frameHeader+len(resp) > maxFrame {
					// A response the peer's readFrame would reject must
					// fail THIS request, not poison the shared connection
					// (e.g. exporting a session with tens of millions of
					// steps).
					err = api.Errf(api.CodeResourceExhausted, "rpc: response exceeds the frame limit; use the HTTP transport for this call")
				}
				if err != nil {
					s.fail(w, reqID, trace, start, err)
					return
				}
				w.send(opCallOK, reqID, trace, resp)
				s.observe(start)
			}(reqID, trace, start)
		case opStreamOpen:
			id, window, perr := parseStreamOpen(body)
			if perr != nil {
				s.fail(w, reqID, trace, start, perr)
				continue
			}
			if window <= 0 {
				window = api.DefaultStreamWindow
			}
			if window > api.MaxStreamWindow {
				s.fail(w, reqID, trace, start, api.Errf(api.CodeInvalidArgument, fmt.Sprintf("rpc: stream window %d exceeds the maximum %d", window, api.MaxStreamWindow)))
				continue
			}
			if _, ok := streams[reqID]; ok {
				s.fail(w, reqID, trace, start, api.Errf(api.CodeInvalidArgument, "rpc: stream id already open"))
				continue
			}
			info, err := s.svc.GetSession(id)
			if err != nil {
				s.fail(w, reqID, trace, start, err)
				continue
			}
			st := &serverStream{id: id, window: window, inbox: make(chan int, window)}
			streams[reqID] = st
			if s.OnStreamOpen != nil {
				s.OnStreamOpen(id)
			}
			pumpStepper := stepper
			if !hasAsync {
				pumpStepper = syncStepper{svc: s.svc}
			}
			s.wg.Add(1)
			go s.pumpStream(ctx, w, st, pumpStepper, reqID, trace)
			var tbuf [4]byte
			binary.BigEndian.PutUint32(tbuf[:], uint32(int32(info.T)))
			w.send(opStreamOK, reqID, trace, tbuf[:])
			s.observe(start)
		case opStreamStep:
			st, ok := streams[reqID]
			if !ok {
				s.fail(w, reqID, trace, start, api.Errf(api.CodeNotFound, "rpc: unknown stream"))
				continue
			}
			if st.dead.Load() || st.inboxClosed {
				continue // stream already terminal; in-flight frames are expected
			}
			loc, perr := parseStreamStep(body)
			if perr != nil {
				st.kill()
				s.fail(w, reqID, trace, start, perr)
				continue
			}
			select {
			case st.inbox <- loc:
			default:
				// A compliant client never has more than `window` unacked
				// steps in flight, so a full inbox is a protocol violation;
				// killing the stream (not the connection) keeps the reader
				// loop non-blocking.
				st.kill()
				s.fail(w, reqID, trace, start, api.Errf(api.CodeInvalidArgument, "rpc: stream window exceeded"))
			}
		case opStreamClose:
			st, ok := streams[reqID]
			if !ok {
				s.fail(w, reqID, trace, start, api.Errf(api.CodeNotFound, "rpc: unknown stream"))
				continue
			}
			if !st.dead.Load() && !st.inboxClosed {
				st.inboxClosed = true
				close(st.inbox)
			}
			s.observe(start)
		default:
			s.fail(w, reqID, trace, start, api.Errf(api.CodeInvalidArgument, "rpc: unknown op"))
		}
	}
}

// observeStep reports one successfully served step into both observer
// hooks: the request observer and the per-stage step observer.
func (s *Server) observeStep(start time.Time, decode, encode time.Duration) {
	total := time.Since(start)
	if s.Observe != nil {
		s.Observe(total)
	}
	if s.ObserveStep != nil {
		s.ObserveStep(total, decode, encode)
	}
}

func (s *Server) fail(w *connWriter, reqID, trace uint64, start time.Time, err error) {
	w.send(opError, reqID, trace, appendErrResp(nil, err))
	s.observe(start)
}

// dispatch runs one control-plane call: look the call up by its method
// byte, decode the JSON request, drive the service, encode the JSON
// response.
func (s *Server) dispatch(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	i := slices.IndexFunc(api.Calls, func(c *api.Call) bool { return c.Wire == method })
	if i < 0 {
		return nil, api.Errf(api.CodeInvalidArgument, "rpc: unknown method")
	}
	call := api.Calls[i]
	req := call.NewRequest()
	if err := api.DecodeJSON(bytes.NewReader(payload), call.Limit, req); err != nil {
		return nil, err
	}
	resp, err := call.Serve(ctx, s.svc, req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}
