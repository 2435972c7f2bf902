package server

import (
	"sync"
	"testing"

	"priste/internal/api"
)

func registryTestServer(t *testing.T, certCache int) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 4, 4
	cfg.Events = []string{"0-3@2-4"}
	cfg.QPTimeout = 0
	cfg.Workers = defaultTestWorkers
	cfg.CertCacheSize = certCache
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// defaultTestWorkers: most registry tests never step, so skip the pool.
const defaultTestWorkers = -1

func seedReq(seed int64, mutate func(*api.CreateSessionRequest)) api.CreateSessionRequest {
	req := api.CreateSessionRequest{Seed: &seed}
	if mutate != nil {
		mutate(&req)
	}
	return req
}

// TestPlanRegistryCanonicalisation: sessions differing only in seed (or
// event-spec order) share one compiled plan; sessions differing in ε, α,
// events, mechanism, or δ get their own.
func TestPlanRegistryCanonicalisation(t *testing.T) {
	s := registryTestServer(t, -1)
	mustCreate := func(req api.CreateSessionRequest) {
		t.Helper()
		if _, err := s.CreateSession(req); err != nil {
			t.Fatal(err)
		}
	}

	// Seeds 1..4, identical parameters: one plan.
	for seed := int64(1); seed <= 4; seed++ {
		mustCreate(seedReq(seed, nil))
	}
	if got := s.registry.Len(); got != 1 {
		t.Fatalf("%d plans after seed-only variation, want 1", got)
	}

	// Same events spelled in a different order: still the same plan.
	mustCreate(seedReq(10, func(r *api.CreateSessionRequest) {
		r.Events = []string{"4-7@1-2", "0-3@2-4"}
	}))
	mustCreate(seedReq(11, func(r *api.CreateSessionRequest) {
		r.Events = []string{"0-3@2-4", "4-7@1-2"}
	}))
	if got := s.registry.Len(); got != 2 {
		t.Fatalf("%d plans after reordered events, want 2 (order must not matter)", got)
	}

	// Each semantic difference mints a new plan.
	for i, mutate := range []func(*api.CreateSessionRequest){
		func(r *api.CreateSessionRequest) { r.Epsilon = 0.9 },
		func(r *api.CreateSessionRequest) { r.Alpha = 2.0 },
		func(r *api.CreateSessionRequest) { r.Events = []string{"0-3@1-3"} },
		func(r *api.CreateSessionRequest) { r.Mechanism = MechanismDelta },
		func(r *api.CreateSessionRequest) {
			r.Mechanism = MechanismDelta
			d := 0.2
			r.Delta = &d
		},
	} {
		mustCreate(seedReq(int64(100+i), mutate))
		if got, want := s.registry.Len(), 3+i; got != want {
			t.Fatalf("variant %d: %d plans, want %d", i, got, want)
		}
	}

	// Repeating the delta variant shares its existing plan.
	mustCreate(seedReq(200, func(r *api.CreateSessionRequest) { r.Mechanism = MechanismDelta }))
	if got := s.registry.Len(); got != 7 {
		t.Fatalf("%d plans after repeating a variant, want 7", got)
	}
	st := s.registry.Stats()
	if st.Compiled != 7 || st.SharedHits == 0 {
		t.Fatalf("registry stats %+v", st)
	}
}

// TestPlanRegistryConcurrentCreate: racing creates of one parameter set
// must converge on a single plan.
func TestPlanRegistryConcurrentCreate(t *testing.T) {
	s := registryTestServer(t, -1)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			if _, err := s.CreateSession(seedReq(g, nil)); err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Wait()
	if got := s.registry.Len(); got != 1 {
		t.Fatalf("%d plans after concurrent identical creates, want 1", got)
	}
}

// TestSharedPlanConcurrentSteps drives many sessions of one shared plan
// (and one shared certified-release cache) concurrently through the full
// worker-pool path; under -race this exercises the shared emission table,
// plan structures and cache. Cache stats must show up in /statsz terms.
func TestSharedPlanConcurrentSteps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridW, cfg.GridH = 4, 4
	cfg.Events = []string{"0-3@1-2"}
	cfg.QPTimeout = 0
	cfg.Workers = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const sessions = 12
	ids := make([]string, sessions)
	for i := range ids {
		seed := int64(i + 1)
		sess, err := s.CreateSession(api.CreateSessionRequest{Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = sess.ID
	}
	if got := s.registry.Len(); got != 1 {
		t.Fatalf("%d plans, want 1", got)
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for step := 0; step < 4; step++ {
				if _, err := s.Step(bg, id, (i+step)%16); err != nil {
					t.Errorf("session %d step %d: %v", i, step, err)
					return
				}
			}
		}(i, id)
	}
	wg.Wait()

	stats := s.Stats()
	if !stats.CertCache.Enabled {
		t.Fatal("cert cache disabled under default config")
	}
	if stats.CertCache.Hits == 0 {
		t.Fatalf("no cache hits across %d sibling sessions: %+v", sessions, stats.CertCache)
	}
	if stats.Plans.Live != 1 {
		t.Fatalf("plan stats %+v", stats.Plans)
	}
}
