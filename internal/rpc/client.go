package rpc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/obs"
)

// Client is the typed binary-RPC client. It implements api.Client — the
// same interface as the HTTP client — over one persistent, multiplexed
// TCP connection: concurrent calls pipeline their frames and are
// matched to responses by request id, so the hot step path pays no
// per-request connection setup, headers or JSON. The connection is
// dialed lazily and redialed transparently after an I/O failure
// (in-flight calls on the broken connection fail; the next call
// reconnects). The control calls are api.ControlClient's; Client adds
// how one travels in an opCall frame, and the step methods.
type Client struct {
	api.ControlClient
	addr        string
	dialTimeout time.Duration

	mu     sync.Mutex // guards cc/seq and redial
	cc     *clientConn
	seq    uint64
	closed bool
}

var _ api.Client = (*Client)(nil)

// clientConn is one live connection with its own in-flight table, so a
// redial can never orphan or steal another connection's pending calls.
type clientConn struct {
	conn net.Conn
	bw   *bufio.Writer

	mu      sync.Mutex // guards pending/streams and writes
	pending map[uint64]chan response
	streams map[uint64]*clientStream
	dead    bool
}

type response struct {
	op   byte
	body []byte
}

// Dial returns a client for the pristed RPC listener at addr (e.g.
// "localhost:8378"). The connection is established on first use.
func Dial(addr string) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("rpc: empty address")
	}
	c := &Client{addr: addr, dialTimeout: 10 * time.Second}
	c.Do = c.call
	return c, nil
}

// Close tears the connection down; in-flight calls fail and later calls
// return errors instead of redialing.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		return cc.conn.Close()
	}
	return nil
}

// ensureConn dials and starts the reader if needed. Caller holds c.mu.
func (c *Client) ensureConn() (*clientConn, error) {
	if c.closed {
		return nil, api.Errf(api.CodeUnavailable, "rpc: client closed")
	}
	if c.cc != nil {
		return c.cc, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The protocol writes one small frame per step; letting Nagle
		// hold it back would add RTTs to every release.
		_ = tc.SetNoDelay(true)
	}
	cc := &clientConn{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 32<<10),
		pending: make(map[uint64]chan response),
		streams: make(map[uint64]*clientStream),
	}
	c.cc = cc
	go c.readLoop(cc)
	return cc, nil
}

// fail marks the connection dead and fails everything in flight on it,
// open streams included.
func (cc *clientConn) fail() {
	cc.conn.Close()
	cc.mu.Lock()
	cc.dead = true
	stale := cc.pending
	cc.pending = nil
	staleStreams := cc.streams
	cc.streams = nil
	cc.mu.Unlock()
	for _, ch := range stale {
		close(ch) // closed channel = connection failure
	}
	for _, st := range staleStreams {
		st.terminate(api.Errf(api.CodeUnavailable, "rpc: connection lost"))
	}
}

// readLoop dispatches response frames to their pending calls until the
// connection dies.
func (c *Client) readLoop(cc *clientConn) {
	br := bufio.NewReaderSize(cc.conn, 32<<10)
	for {
		op, reqID, _, body, err := readFrame(br)
		if err != nil {
			c.mu.Lock()
			if c.cc == cc {
				c.cc = nil // next call redials
			}
			c.mu.Unlock()
			cc.fail()
			return
		}
		cc.mu.Lock()
		ch := cc.pending[reqID]
		delete(cc.pending, reqID)
		var st *clientStream
		if ch == nil {
			// Stream frames reuse one reqID for the stream's lifetime, so
			// the entry is not consumed per frame.
			st = cc.streams[reqID]
		}
		cc.mu.Unlock()
		if ch != nil {
			ch <- response{op: op, body: body}
		} else if st != nil {
			st.handleFrame(op, body)
		}
	}
}

// send enqueues one request frame and returns the connection it went
// out on plus its response channel. trace is the request's trace ID (0:
// none; the server generates one).
func (c *Client) send(op byte, trace uint64, body []byte) (*clientConn, uint64, chan response, error) {
	if frameHeader+len(body) > maxFrame {
		// The server's readFrame would kill the connection — and every
		// concurrent request on it — over this one oversized request
		// (e.g. importing an enormous session). Fail it locally instead.
		return nil, 0, nil, api.Errf(api.CodeInvalidArgument, "rpc: request exceeds the frame limit; use the HTTP transport for this call")
	}
	c.mu.Lock()
	cc, err := c.ensureConn()
	if err != nil {
		c.mu.Unlock()
		return nil, 0, nil, err
	}
	c.seq++
	reqID := c.seq
	c.mu.Unlock()

	ch := make(chan response, 1)
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return nil, 0, nil, api.Errf(api.CodeUnavailable, "rpc: connection lost")
	}
	cc.pending[reqID] = ch
	frame := appendFrame(nil, op, reqID, trace, body)
	_, werr := cc.bw.Write(frame)
	if werr == nil {
		werr = cc.bw.Flush()
	}
	cc.mu.Unlock()
	if werr != nil {
		c.mu.Lock()
		if c.cc == cc {
			c.cc = nil
		}
		c.mu.Unlock()
		cc.fail()
		return nil, 0, nil, fmt.Errorf("rpc: write: %w", werr)
	}
	return cc, reqID, ch, nil
}

// await blocks for the response (or ctx expiry / connection loss).
func (c *Client) await(ctx context.Context, cc *clientConn, reqID uint64, ch chan response) (response, error) {
	select {
	case resp, ok := <-ch:
		if !ok {
			return response{}, api.Errf(api.CodeUnavailable, "rpc: connection lost")
		}
		if resp.op == opError {
			return response{}, parseErrResp(resp.body)
		}
		return resp, nil
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.pending, reqID) // the late response, if any, is dropped
		cc.mu.Unlock()
		return response{}, ctx.Err()
	}
}

// step issues one binary step round-trip. A trace ID on ctx
// (obs.WithTrace) rides the request frame and correlates the server's
// logs and metrics with this call.
func (c *Client) step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	body, err := appendStepReq(nil, id, loc)
	if err != nil {
		return api.StepResponse{}, err
	}
	cc, reqID, ch, err := c.send(opStep, obs.TraceFrom(ctx), body)
	if err != nil {
		return api.StepResponse{}, err
	}
	resp, err := c.await(ctx, cc, reqID, ch)
	if err != nil {
		return api.StepResponse{}, err
	}
	if resp.op != opStepOK {
		return api.StepResponse{}, api.Errf(api.CodeInternal, "rpc: unexpected response op")
	}
	return parseStepResp(resp.body)
}

// call issues one JSON control-plane round-trip: an opCall frame
// carrying the call's method byte and the JSON request. out nil
// discards the response body.
func (c *Client) call(ctx context.Context, call *api.Call, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	body := append([]byte{call.Wire}, payload...)
	cc, reqID, ch, err := c.send(opCall, obs.TraceFrom(ctx), body)
	if err != nil {
		return err
	}
	resp, err := c.await(ctx, cc, reqID, ch)
	if err != nil {
		return err
	}
	if resp.op != opCallOK {
		return api.Errf(api.CodeInternal, "rpc: unexpected response op")
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp.body, out)
}

// Step implements api.Client over the binary fast path.
func (c *Client) Step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	return c.step(ctx, id, loc)
}

// StepBatch implements api.Client by pipelining one binary step frame
// per item on the shared connection: items are written in slice order
// (so same-session items keep their FIFO order server-side, exactly
// like the HTTP batch endpoint) and completions are collected
// positionally, with per-item failures reported inline.
func (c *Client) StepBatch(ctx context.Context, steps []api.BatchStepItem) ([]api.StepResponse, error) {
	type inflight struct {
		cc    *clientConn
		reqID uint64
		ch    chan response
	}
	calls := make([]inflight, len(steps))
	results := make([]api.StepResponse, len(steps))
	trace := obs.TraceFrom(ctx)
	for i, item := range steps {
		body, err := appendStepReq(nil, item.SessionID, item.Loc)
		if err == nil {
			calls[i].cc, calls[i].reqID, calls[i].ch, err = c.send(opStep, trace, body)
		}
		if err != nil {
			results[i] = api.FailedStep(item.SessionID, err)
			calls[i].ch = nil
		}
	}
	for i, call := range calls {
		if call.ch == nil {
			continue
		}
		resp, err := c.await(ctx, call.cc, call.reqID, call.ch)
		if err == nil && resp.op != opStepOK {
			err = api.Errf(api.CodeInternal, "rpc: unexpected response op")
		}
		if err != nil {
			results[i] = api.FailedStep(steps[i].SessionID, err)
			continue
		}
		sr, err := parseStepResp(resp.body)
		if err != nil {
			results[i] = api.FailedStep(steps[i].SessionID, err)
			continue
		}
		sr.SessionID = steps[i].SessionID
		results[i] = sr
	}
	return results, nil
}
