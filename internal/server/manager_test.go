package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"priste/internal/api"
)

// bg is the context of test calls with no cancellation story.
var bg = context.Background()

// testConfig is a small deterministic deployment: 6×6 map, no QP
// deadline (so identical seeds give identical releases), short queues.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 6, 6
	cfg.Events = []string{"0-5@2-4"}
	cfg.QPTimeout = 0
	cfg.SessionTTL = -1 // no janitor; tests sweep by hand
	return cfg
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestSessionLifecycle(t *testing.T) {
	srv := newTestServer(t, testConfig())
	seed := int64(7)
	sess, err := srv.CreateSession(api.CreateSessionRequest{ID: "alice", Seed: &seed})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.ID != "alice" {
		t.Fatalf("id = %q, want alice", sess.ID)
	}
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "alice"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create: err = %v, want ErrSessionExists", err)
	}
	res, err := srv.Step(bg, "alice", 3)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.T != 0 {
		t.Fatalf("first step T = %d, want 0", res.T)
	}
	info, err := srv.GetSession("alice")
	if err != nil || info.T != 1 {
		t.Fatalf("SessionInfo = %+v, %v; want T=1", info, err)
	}
	if err := srv.DeleteSession("alice"); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if _, err := srv.Step(bg, "alice", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after delete: err = %v, want ErrNotFound", err)
	}
	if _, err := srv.Step(bg, "ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: err = %v, want ErrNotFound", err)
	}
}

func TestStepValidation(t *testing.T) {
	srv := newTestServer(t, testConfig())
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Step(bg, "u", 99); err == nil {
		t.Fatal("loc 99 on a 36-state map should fail")
	}
	// The session survives a bad step.
	if _, err := srv.Step(bg, "u", 0); err != nil {
		t.Fatalf("step after bad loc: %v", err)
	}
}

func TestTTLEviction(t *testing.T) {
	// Drive the manager's sweep directly with a hand-held clock; the
	// server's janitor just calls sweep(time.Now()) on a ticker.
	ttl := time.Minute
	metrics := newMetrics()
	mgr := newManager(10, ttl, metrics)
	now := time.Now()
	for _, id := range []string{"a", "b"} {
		s := &Session{id: id}
		s.touch(now)
		if err := mgr.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := mgr.sweep(now); n != 0 {
		t.Fatalf("fresh sessions swept: %d", n)
	}
	// Keep "b" fresh past the cutoff; "a" expires.
	future := now.Add(ttl + time.Second)
	if s, ok := mgr.Get("b"); ok {
		s.touch(future)
	}
	if n := mgr.sweep(future); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	if _, ok := mgr.Get("a"); ok {
		t.Fatal("idle session a still live")
	}
	if _, ok := mgr.Get("b"); !ok {
		t.Fatal("fresh session b evicted")
	}
	st := metrics.Snapshot()
	if st.Sessions.Evicted != 1 || st.Sessions.Live != 1 {
		t.Fatalf("stats = %+v, want 1 evicted, 1 live", st.Sessions)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 3
	srv := newTestServer(t, cfg)
	base := time.Now()
	// Backdate the first three so u1 is the least recently used and the
	// new session (stamped with the real clock) is the freshest.
	offsets := map[string]time.Duration{"u0": -2 * time.Minute, "u1": -3 * time.Minute, "u2": -time.Minute}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("u%d", i)
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
		s, _ := srv.mgr.Get(id)
		s.touch(base.Add(offsets[id]))
	}
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "u3"}); err != nil {
		t.Fatal(err)
	}
	if srv.mgr.Len() != 3 {
		t.Fatalf("live = %d, want 3", srv.mgr.Len())
	}
	if _, ok := srv.mgr.Get("u1"); ok {
		t.Fatal("LRU session u1 still live")
	}
	for _, id := range []string{"u0", "u2", "u3"} {
		if _, ok := srv.mgr.Get(id); !ok {
			t.Fatalf("session %s evicted, want u1", id)
		}
	}
	if ev := srv.metrics.sessionsEvicted.Load(); ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
}

// TestDuplicateCreateAtCapacity checks a rejected duplicate id never
// evicts an unrelated live session.
func TestDuplicateCreateAtCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 2
	srv := newTestServer(t, cfg)
	for _, id := range []string{"a", "b"} {
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "a"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create: %v, want ErrSessionExists", err)
	}
	if srv.mgr.Len() != 2 {
		t.Fatalf("live = %d after rejected create, want 2", srv.mgr.Len())
	}
	if ev := srv.metrics.sessionsEvicted.Load(); ev != 0 {
		t.Fatalf("evicted = %d after rejected create, want 0", ev)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1 // nothing drains: queues only fill
	cfg.QueueDepth = 2
	srv := newTestServer(t, cfg)
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.StepAsync(context.Background(), "u", 0); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if _, err := srv.StepAsync(context.Background(), "u", 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue on full queue: err = %v, want ErrQueueFull", err)
	}
	if n := srv.metrics.Snapshot().Steps.QueueRejections; n != 1 {
		t.Fatalf("queue_rejections = %d, want 1", n)
	}
	// Closing the session fails the pending steps.
	sess, _ := srv.mgr.Get("u")
	_ = srv.DeleteSession("u")
	if sess.queued() != 0 {
		t.Fatalf("queued = %d after close, want 0", sess.queued())
	}
}

// TestSampledEviction drives the manager far past evictExactThreshold:
// every over-capacity Put must evict exactly one session, the freshest
// session must never be the victim (a 16-entry sample always contains
// something older), and the registry must hold the cap afterwards.
func TestSampledEviction(t *testing.T) {
	const max = evictExactThreshold + 22
	const total = 2 * max
	metrics := newMetrics()
	mgr := newManager(max, time.Minute, metrics)
	base := time.Now()
	var last string
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("s%04d", i)
		s := &Session{id: id}
		s.touch(base.Add(time.Duration(i) * time.Second)) // strictly increasing
		if err := mgr.Put(s); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
		mgr.enforceCap()
		last = id
		if n := mgr.Len(); n > max {
			t.Fatalf("after %d puts: live = %d > max %d", i+1, n, max)
		}
	}
	if mgr.Len() != max {
		t.Fatalf("live = %d, want %d", mgr.Len(), max)
	}
	if ev := metrics.sessionsEvicted.Load(); ev != total-max {
		t.Fatalf("evicted = %d, want %d", ev, total-max)
	}
	if _, ok := mgr.Get(last); !ok {
		t.Fatal("freshest session was evicted by sampling")
	}
}

// TestTombstoneHookFiresOnRemoveNotCloseAll: delete/evict must invoke
// the durability tombstone hook; shutdown (CloseAll) must not, so
// journaled sessions survive a restart.
func TestTombstoneHookFiresOnRemoveNotCloseAll(t *testing.T) {
	metrics := newMetrics()
	mgr := newManager(2, time.Minute, metrics)
	tombs := make(map[string]int)
	mgr.onRemove = func(id string) { tombs[id]++ }
	now := time.Now()
	for _, id := range []string{"a", "b"} {
		s := &Session{id: id}
		s.touch(now)
		if err := mgr.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Remove("a")
	// "c" pushes past capacity: the LRU ("b") is evicted via Remove.
	s := &Session{id: "c"}
	s.touch(now.Add(time.Minute))
	if err := mgr.Put(s); err != nil {
		t.Fatal(err)
	}
	mgr.enforceCap()
	d := &Session{id: "d"}
	d.touch(now.Add(2 * time.Minute))
	if err := mgr.Put(d); err != nil {
		t.Fatal(err)
	}
	mgr.enforceCap()
	if tombs["a"] != 1 || tombs["b"] != 1 {
		t.Fatalf("tombstones = %v, want a and b exactly once", tombs)
	}
	mgr.CloseAll()
	if tombs["c"] != 0 || tombs["d"] != 0 {
		t.Fatalf("CloseAll tombstoned surviving sessions: %v", tombs)
	}
}

// BenchmarkPutChurnOverCapacity measures Put while the registry sits at
// capacity, so every insert pays one eviction — the path sampled
// eviction takes from O(live) to O(sample).
func BenchmarkPutChurnOverCapacity(b *testing.B) {
	for _, max := range []int{512, 4096} {
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			metrics := newMetrics()
			mgr := newManager(max, time.Minute, metrics)
			base := time.Now()
			for i := 0; i < max; i++ {
				s := &Session{id: fmt.Sprintf("fill%06d", i)}
				s.touch(base.Add(time.Duration(i)))
				if err := mgr.Put(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &Session{id: fmt.Sprintf("churn%09d", i)}
				s.touch(base.Add(time.Duration(max + i)))
				if err := mgr.Put(s); err != nil {
					b.Fatal(err)
				}
				mgr.enforceCap()
			}
		})
	}
}

func TestPendingStepsFailOnClose(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	srv := newTestServer(t, cfg)
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	done, err := srv.StepAsync(context.Background(), "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.DeleteSession("u")
	select {
	case out := <-done:
		if !errors.Is(out.Err, ErrSessionClosed) {
			t.Fatalf("pending step: err = %v, want ErrSessionClosed", out.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending step never failed after close")
	}
}
