package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"priste/internal/api"
	"priste/internal/obs"
)

// Client is the typed HTTP/JSON client for the pristed API: a thin
// codec over the shared api wire types. It implements api.Client, the
// transport-neutral client interface the binary RPC client satisfies
// too, so callers can swap transports without touching call sites. The
// control calls are api.ControlClient's; Client adds how one travels
// over HTTP, and the step methods.
type Client struct {
	api.ControlClient
	base string
	http *http.Client
}

var _ api.Client = (*Client)(nil)

// defaultHTTPClient backs NewClient when the caller passes no client.
// Two departures from http.DefaultTransport matter on the step path:
// MaxIdleConnsPerHost is raised from 2 to 256 so a concurrent step
// pipeline reuses that many keep-alive connections instead of closing
// and re-handshaking all but two of them after every burst, and
// compression is disabled — step bodies are ~200-byte JSON documents,
// where gzip costs CPU on both ends and saves nothing.
var defaultHTTPClient = &http.Client{Transport: defaultTransport()}

func defaultTransport() http.RoundTripper {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	t = t.Clone()
	t.MaxIdleConns = 0 // no global idle cap; per-host below governs
	t.MaxIdleConnsPerHost = 256
	t.DisableCompression = true
	return t
}

// NewClient returns a client for the pristed instance at baseURL (e.g.
// "http://localhost:8377"). httpClient nil uses a shared client tuned
// for the step path (see defaultHTTPClient); pass your own to override
// timeouts, TLS or proxying.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	c := &Client{base: baseURL, http: httpClient}
	c.Do = c.call
	return c
}

// call carries one control call: a SessionRef travels as the route's
// {id} path segment, a list request as the limit/cursor query, a call
// without a request with no body, and any other request as the JSON
// body.
func (c *Client) call(ctx context.Context, call *api.Call, in, out any) error {
	method, path, _ := strings.Cut(call.Route, " ")
	switch req := in.(type) {
	case api.SessionRef:
		path, in = strings.Replace(path, "{id}", pathSegment(req.ID), 1), nil
	case api.ListSessionsRequest:
		q := url.Values{}
		if req.Limit != 0 {
			q.Set("limit", strconv.Itoa(req.Limit))
		}
		if req.Cursor != "" {
			q.Set("cursor", req.Cursor)
		}
		if len(q) > 0 {
			path += "?" + q.Encode()
		}
		in = nil
	case struct{}:
		in = nil
	}
	return c.do(ctx, method, path, in, out)
}

// pathSegment escapes id as one path segment. The ids "." and ".." are
// spelled with %2E: written plain, the server's router would clean them
// out of the path and redirect the request elsewhere.
func pathSegment(id string) string {
	if id == "." || id == ".." {
		return strings.ReplaceAll(id, ".", "%2E")
	}
	return url.PathEscape(id)
}

// do issues one JSON round-trip; out nil discards the body. Non-2xx
// responses decode the error envelope into a typed *api.Error carrying
// the canonical code (reconstructed from the status line when the
// envelope has none), so errors.Is against the service sentinels holds
// client-side.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace := obs.TraceFrom(ctx); trace != 0 {
		// A trace on ctx (obs.WithTrace) propagates to the server, whose
		// slow-step logs then carry the same ID as this caller's records.
		req.Header.Set(obs.TraceHeader, obs.FormatTrace(trace))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	// Drain before close on every path (decode errors, error envelopes,
	// discarded bodies): a body with unread bytes poisons the keep-alive
	// connection, forcing a fresh TCP+TLS handshake per call exactly when
	// the caller is busiest.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		code := eb.Code
		if !code.Valid() {
			code = api.CodeFromHTTPStatus(resp.StatusCode)
		}
		return &api.Error{Code: code, Message: msg}
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Step releases one true location through a session.
func (c *Client) Step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	var out api.StepResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+pathSegment(id)+"/step", api.StepRequest{Loc: loc}, &out)
	return out, err
}

// StepBatch releases locations for many users at once; Results[i]
// corresponds to steps[i], with per-item errors reported inline.
func (c *Client) StepBatch(ctx context.Context, steps []api.BatchStepItem) ([]api.StepResponse, error) {
	var out api.BatchStepResponse
	err := c.do(ctx, http.MethodPost, "/v1/step", api.BatchStepRequest{Steps: steps}, &out)
	return out.Results, err
}
