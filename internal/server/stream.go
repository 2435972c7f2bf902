package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"priste/internal/api"
)

// streamHub is the session-scoped release-subscriber registry shared by
// every push surface: the worker pool publishes each committed release
// into it (pool.onRelease) and the SSE endpoint subscribes through it,
// so a subscriber sees a session's releases in commit order regardless
// of which transport — unary HTTP, batch, RPC stream — submitted the
// steps. Sharded with the session registry so publishes from many
// sessions do not serialise on one lock.
type streamHub struct {
	shards  [numShards]hubShard
	buffer  int
	metrics *Metrics
}

type hubShard struct {
	mu   sync.Mutex
	subs map[string][]*releaseSub
}

// releaseSub is one subscriber's view of a session's release stream: a
// buffered channel of committed releases, closed (with reason recording
// why) when the session ends or the subscriber lags the commit stream by
// more than the buffer depth.
type releaseSub struct {
	ch chan api.StepResponse

	// reason is set exactly once, before ch is closed; readers consult
	// it only after ch is drained, so the close is the publication
	// barrier and no extra lock is needed on the read side.
	reason error
}

// errStreamLagged disconnects a subscriber that fell further behind the
// commit stream than its buffer: the commit path must never block on a
// slow reader.
var errStreamLagged = api.Errf(api.CodeResourceExhausted, "server: release subscriber lagged behind the commit stream")

func newStreamHub(buffer int, metrics *Metrics) *streamHub {
	h := &streamHub{buffer: buffer, metrics: metrics}
	for i := range h.shards {
		h.shards[i].subs = make(map[string][]*releaseSub)
	}
	return h
}

// subscribe registers a new release subscriber on a session. The caller
// must verify the session is live *after* subscribing (and unsubscribe
// if it is not): closeSession only terminates subscribers it can see,
// so the re-check closes the race with a concurrent delete.
func (h *streamHub) subscribe(id string) *releaseSub {
	sub := &releaseSub{ch: make(chan api.StepResponse, h.buffer)}
	sh := &h.shards[shardIndex(id)]
	sh.mu.Lock()
	sh.subs[id] = append(sh.subs[id], sub)
	sh.mu.Unlock()
	h.metrics.sseSubscribers.Add(1)
	return sub
}

// unsubscribe removes a subscriber (reader gone). Idempotent with a
// concurrent terminate: only the party that actually unlinks the
// subscriber adjusts the gauge and closes the channel.
func (h *streamHub) unsubscribe(id string, sub *releaseSub) {
	sh := &h.shards[shardIndex(id)]
	sh.mu.Lock()
	removed := false
	list := sh.subs[id]
	for i, s := range list {
		if s == sub {
			list = append(list[:i], list[i+1:]...)
			removed = true
			break
		}
	}
	if len(list) == 0 {
		delete(sh.subs, id)
	} else {
		sh.subs[id] = list
	}
	sh.mu.Unlock()
	if removed {
		h.metrics.sseSubscribers.Add(-1)
	}
}

// publish fans one committed release out to the session's subscribers.
// It runs on the worker holding the session's scheduled token (after the
// step's acknowledgement), so per-session publish order is commit order.
// The send never blocks: a subscriber whose buffer is full is terminated
// with errStreamLagged instead of backpressuring the commit path.
func (h *streamHub) publish(id string, resp api.StepResponse) {
	sh := &h.shards[shardIndex(id)]
	sh.mu.Lock()
	list := sh.subs[id]
	if len(list) == 0 {
		sh.mu.Unlock()
		return
	}
	var lagged []*releaseSub
	kept := list[:0]
	for _, sub := range list {
		select {
		case sub.ch <- resp:
			kept = append(kept, sub)
		default:
			lagged = append(lagged, sub)
		}
	}
	if len(kept) == 0 {
		delete(sh.subs, id)
	} else {
		sh.subs[id] = kept
	}
	sh.mu.Unlock()
	h.metrics.sseDelivered.Add(int64(len(kept)))
	for _, sub := range lagged {
		sub.reason = errStreamLagged
		close(sub.ch)
		h.metrics.sseDropped.Add(1)
		h.metrics.sseSubscribers.Add(-1)
	}
}

// closeSession terminates every subscriber of a session that left the
// registry (delete, eviction, TTL sweep, shutdown); wired to
// Manager.onClosed.
func (h *streamHub) closeSession(id string) {
	sh := &h.shards[shardIndex(id)]
	sh.mu.Lock()
	list := sh.subs[id]
	delete(sh.subs, id)
	sh.mu.Unlock()
	for _, sub := range list {
		sub.reason = ErrSessionClosed
		close(sub.ch)
		h.metrics.sseSubscribers.Add(-1)
	}
}

// sseHello is the payload of the stream's opening event: the session id
// and the timestamp the release stream resumes from.
type sseHello struct {
	ID string `json:"id"`
	T  int    `json:"t"`
}

// sseEnd is the payload of the stream's terminal event.
type sseEnd struct {
	Code  api.Code `json:"code"`
	Error string   `json:"error"`
}

// handleSessionStream serves GET /v1/sessions/{id}/stream: a
// Server-Sent-Events push stream of the session's certified releases as
// they commit. The stream opens with an `event: hello` carrying the
// session's next timestamp, delivers each release as an `event: release`
// whose data is the StepResponse JSON (`id:` is the release timestamp),
// and closes with an `event: end` naming the canonical error code —
// session_closed when the session is deleted or evicted,
// resource_exhausted when the subscriber lagged the commit stream by
// more than the configured buffer.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, ErrDraining)
		return
	}
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, api.Errf(api.CodeInternal, "server: connection does not support streaming"))
		return
	}
	if _, ok := s.mgr.Get(id); !ok {
		WriteError(w, ErrNotFound)
		return
	}
	sub := s.hub.subscribe(id)
	// Re-check liveness after subscribing: a delete between the check
	// above and the subscribe has already run closeSession and cannot
	// see this subscriber.
	sess, ok := s.mgr.Get(id)
	if !ok {
		s.hub.unsubscribe(id, sub)
		WriteError(w, ErrNotFound)
		return
	}
	defer s.hub.unsubscribe(id, sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "", "hello", sseHello{ID: id, T: int(sess.steps.Load())})
	flusher.Flush()

	for {
		select {
		case resp, ok := <-sub.ch:
			if !ok {
				e := api.ErrorOf(sub.reason)
				writeSSE(w, "", "end", sseEnd{Code: e.Code, Error: e.Message})
				flusher.Flush()
				return
			}
			writeSSE(w, fmt.Sprintf("%d", resp.T), "release", resp)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one Server-Sent-Events frame: optional id line,
// event name, and the JSON-encoded data payload.
func writeSSE(w http.ResponseWriter, id, event string, data any) {
	if id != "" {
		fmt.Fprintf(w, "id: %s\n", id)
	}
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
