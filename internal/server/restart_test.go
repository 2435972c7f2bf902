package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"priste/internal/certcache"
	"priste/internal/qp"
	"priste/internal/store"
)

// durableConfig is testConfig over a file store in dir. SnapshotEvery 4
// exercises mid-run WAL compaction.
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	st, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = st
	cfg.SnapshotEvery = 4
	return cfg
}

type restartUser struct {
	id    string
	seed  int64
	mech  string
	delta float64
}

var restartUsers = []restartUser{
	{id: "alice", seed: 11, mech: MechanismLaplace},
	{id: "bob", seed: 22, mech: MechanismLaplace},
	{id: "carol", seed: 33, mech: MechanismDelta, delta: 0.05},
}

func createRestartUser(t *testing.T, srv *Server, u restartUser) {
	t.Helper()
	req := CreateSessionRequest{ID: u.id, Seed: &u.seed, Mechanism: u.mech}
	if u.mech == MechanismDelta {
		d := u.delta
		req.Delta = &d
	}
	if _, err := srv.CreateSession(req); err != nil {
		t.Fatalf("create %s: %v", u.id, err)
	}
}

// stepAll steps every user once per timestamp in [from, to) and returns
// the results keyed by user then timestamp offset.
func stepAll(t *testing.T, srv *Server, from, to int) map[string][]StepResponse {
	t.Helper()
	m := srv.Config().GridW * srv.Config().GridH
	out := make(map[string][]StepResponse)
	for k := from; k < to; k++ {
		for ui, u := range restartUsers {
			loc := (k*7 + ui*3) % m // deterministic trajectory per user
			res, err := srv.Step(bg, u.id, loc)
			if err != nil {
				t.Fatalf("%s step %d: %v", u.id, k, err)
			}
			out[u.id] = append(out[u.id], res)
		}
	}
	return out
}

func sameSteps(t *testing.T, label string, got, want []StepResponse) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.T != w.T || g.Obs != w.Obs || g.Alpha != w.Alpha ||
			g.Attempts != w.Attempts || g.Uniform != w.Uniform {
			t.Errorf("%s step %d: got %+v, want %+v", label, k, g, w)
		}
	}
}

// TestRestartEquivalence is the acceptance check: sessions stepped N
// times, snapshotted and shut down, then rehydrated by a fresh server
// over the same store, must release the next M steps seed-for-seed
// identically to an uninterrupted run — for both the shared-plan planar
// Laplace sessions and the stateful δ-location-set one.
func TestRestartEquivalence(t *testing.T) {
	const pre, post = 6, 6

	// Uninterrupted reference over an in-memory server.
	ref := newTestServer(t, testConfig())
	for _, u := range restartUsers {
		createRestartUser(t, ref, u)
	}
	want := stepAll(t, ref, 0, pre)
	for id, more := range stepAll(t, ref, pre, pre+post) {
		want[id] = append(want[id], more...)
	}

	// Durable run, interrupted by a graceful shutdown after pre steps.
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range restartUsers {
		createRestartUser(t, srvA, u)
	}
	gotPre := stepAll(t, srvA, 0, pre)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Restart: a fresh server over the same directory rehydrates all
	// three sessions and continues them.
	srvB := newTestServer(t, durableConfig(t, dir))
	st := srvB.Stats()
	if st.Store.Replayed != int64(len(restartUsers)) || st.Store.ReplayFailures != 0 {
		t.Fatalf("replayed = %d (failures %d), want %d", st.Store.Replayed, st.Store.ReplayFailures, len(restartUsers))
	}
	for _, u := range restartUsers {
		info, err := srvB.GetSession(u.id)
		if err != nil {
			t.Fatalf("rehydrated %s: %v", u.id, err)
		}
		if info.T != pre {
			t.Fatalf("rehydrated %s at T=%d, want %d", u.id, info.T, pre)
		}
		if info.Mechanism != u.mech {
			t.Fatalf("rehydrated %s mechanism %q, want %q", u.id, info.Mechanism, u.mech)
		}
	}
	gotPost := stepAll(t, srvB, pre, pre+post)
	for _, u := range restartUsers {
		sameSteps(t, u.id+" (pre)", gotPre[u.id], want[u.id][:pre])
		sameSteps(t, u.id+" (post-restart)", gotPost[u.id], want[u.id][pre:])
	}
}

// TestCrashRecovery checks WAL-only rehydration: the first server is
// abandoned without Shutdown (no final snapshot, no cache save — the
// in-process equivalent of a crash; the CI smoke test covers a real
// kill -9), so recovery replays the write-ahead log alone.
func TestCrashRecovery(t *testing.T) {
	const pre, post = 5, 5
	ref := newTestServer(t, testConfig())
	for _, u := range restartUsers {
		createRestartUser(t, ref, u)
	}
	want := stepAll(t, ref, 0, pre)
	for id, more := range stepAll(t, ref, pre, pre+post) {
		want[id] = append(want[id], more...)
	}

	dir := t.TempDir()
	cfgA := durableConfig(t, dir)
	cfgA.SnapshotEvery = -1 // never snapshot: recovery is pure WAL replay
	srvA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range restartUsers {
		createRestartUser(t, srvA, u)
	}
	stepAll(t, srvA, 0, pre)
	// "Crash": close the raw store files without flushing any session
	// state, then abandon the server.
	srvA.Close()

	srvB := newTestServer(t, durableConfig(t, dir))
	if st := srvB.Stats(); st.Store.Replayed != int64(len(restartUsers)) {
		t.Fatalf("replayed = %d, want %d", st.Store.Replayed, len(restartUsers))
	}
	gotPost := stepAll(t, srvB, pre, pre+post)
	for _, u := range restartUsers {
		sameSteps(t, u.id+" (post-crash)", gotPost[u.id], want[u.id][pre:])
	}
}

// TestTombstonedSessionsStayDead: explicitly deleted sessions must not
// be rehydrated, while their peers are.
func TestTombstonedSessionsStayDead(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range restartUsers {
		createRestartUser(t, srvA, u)
	}
	stepAll(t, srvA, 0, 3)
	if err := srvA.DeleteSession("bob"); err != nil {
		t.Fatalf("delete bob: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srvB := newTestServer(t, durableConfig(t, dir))
	if _, err := srvB.GetSession("bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session resurrected: %v", err)
	}
	for _, id := range []string{"alice", "carol"} {
		if info, err := srvB.GetSession(id); err != nil || info.T != 3 {
			t.Fatalf("%s: %+v, %v; want T=3", id, info, err)
		}
	}
}

// TestWarmCacheRestart: the certified-release cache saved at shutdown is
// injected into the restarted server's cache when the matching plan
// compiles, surfacing as warm_loaded in /statsz.
func TestWarmCacheRestart(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(5)
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if _, err := srvA.Step(bg, "u", k%36); err != nil {
			t.Fatal(err)
		}
	}
	if n := srvA.Plans().Cache().Len(); n == 0 {
		t.Fatal("no certified decisions cached — test premise broken")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Rehydration recompiles the plan, which pulls the persisted entries
	// into the fresh cache.
	srvB := newTestServer(t, durableConfig(t, dir))
	st := srvB.Stats()
	if st.Store.WarmLoaded == 0 {
		t.Fatalf("warm_loaded = 0 after restart; stats = %+v", st.Store)
	}
	if got := srvB.Plans().Cache().Len(); got == 0 {
		t.Fatal("restarted cache is cold")
	}
	// Warm verdicts must not change behaviour: the restarted session's
	// next steps still match a cold uninterrupted run.
	ref := newTestServer(t, testConfig())
	if _, err := ref.CreateSession(CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if _, err := ref.Step(bg, "u", k%36); err != nil {
			t.Fatal(err)
		}
	}
	for k := 6; k < 10; k++ {
		got, err := srvB.Step(bg, "u", k%36)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := ref.Step(bg, "u", k%36)
		if err != nil {
			t.Fatal(err)
		}
		if got.Obs != wantRes.Obs || got.Alpha != wantRes.Alpha || got.Attempts != wantRes.Attempts {
			t.Fatalf("warm step %d: got %+v, want %+v", k, got, wantRes)
		}
	}
}

// TestWarmLoadKeepsSkippedRejections: a rejection the solver settled on one
// violated condition leaves the other Skipped. Every cached decision must
// persist with the OK it was certified with — a Skipped condition written
// as satisfied would put "Eq16OK" beside a rejection — and come back from
// a warm load as the same hit: rejected stays rejected, never
// conservative, so replays keep skipping the solver.
func TestWarmLoadKeepsSkippedRejections(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(5)
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := srvA.Step(bg, "u", k%36); err != nil {
			t.Fatal(err)
		}
	}
	type verdictKey struct {
		event, t, obs      int
		history, alphaBits uint64
	}
	want := map[verdictKey]bool{}         // the decision's OK
	certified := map[verdictKey][2]bool{} // which conditions were certified to hold
	skipped := 0
	srvA.Plans().Cache().Range(func(k certcache.Key, dec qp.ReleaseDecision) bool {
		vk := verdictKey{k.Event, k.T, k.Obs, k.History, k.AlphaBits}
		want[vk] = dec.OK
		certified[vk] = [2]bool{dec.Eq15.Verdict == qp.Satisfied, dec.Eq16.Verdict == qp.Satisfied}
		if dec.Eq15.Verdict == qp.Skipped || dec.Eq16.Verdict == qp.Skipped {
			skipped++
			if dec.OK {
				t.Errorf("accepted with a skipped condition: %+v", dec)
			}
		}
		return true
	})
	if skipped == 0 {
		t.Fatal("no rejection with a skipped condition was cached — test premise broken")
	}
	for _, e := range srvA.Plans().exportCache() {
		vk := verdictKey{e.Event, e.T, e.Obs, e.History, e.AlphaBits}
		if got := [2]bool{e.Eq15OK, e.Eq16OK}; got != certified[vk] || (e.Eq15OK && e.Eq16OK) != want[vk] {
			t.Fatalf("decision with OK = %v, certified %v persisted as %v", want[vk], certified[vk], got)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srvB := newTestServer(t, durableConfig(t, dir))
	if got := srvB.Plans().WarmLoaded(); got != int64(len(want)) {
		t.Fatalf("warm-loaded %d of %d entries", got, len(want))
	}
	srvB.Plans().Cache().Range(func(k certcache.Key, dec qp.ReleaseDecision) bool {
		ok, found := want[verdictKey{k.Event, k.T, k.Obs, k.History, k.AlphaBits}]
		if !found || dec.OK != ok || dec.Conservative {
			t.Errorf("warm entry %+v reads (OK %v, conservative %v); cached as OK %v (found %v)", k, dec.OK, dec.Conservative, ok, found)
		}
		return true
	})
}

// TestWorldMismatchRefusesReplay: sessions journaled under one world
// model must not replay into a server running a different one — the
// certified verdicts would be meaningless — and the journals must
// survive for a restart under the original world.
func TestWorldMismatchRefusesReplay(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(4)
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := srvA.Step(bg, "u", k); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Same store, different mobility model: replay must be refused.
	cfgB := durableConfig(t, dir)
	cfgB.Sigma = 2.5
	srvB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	st := srvB.Stats()
	if st.Store.Replayed != 0 || st.Store.ReplayFailures != 1 {
		t.Fatalf("cross-world replay: %+v, want 0 replayed / 1 failure", st.Store)
	}
	if st.Store.WarmLoaded != 0 {
		t.Fatal("cross-world warm cache entries injected")
	}
	srvB.Close()

	// The journal survived the mismatch: the original world recovers it.
	srvC := newTestServer(t, durableConfig(t, dir))
	if info, err := srvC.GetSession("u"); err != nil || info.T != 3 {
		t.Fatalf("after returning to the original world: %+v, %v; want T=3", info, err)
	}
}

// TestDuplicateCreateKeepsJournal: a duplicate create against a durable
// server must be rejected without touching the live session's WAL.
func TestDuplicateCreateKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(9)
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := srvA.Step(bg, "u", k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "u"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create: %v, want ErrSessionExists", err)
	}
	// The journal survived the rejected duplicate: the session still
	// steps and restarts at T=4.
	if _, err := srvA.Step(bg, "u", 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srvB := newTestServer(t, durableConfig(t, dir))
	if info, err := srvB.GetSession("u"); err != nil || info.T != 4 {
		t.Fatalf("after restart: %+v, %v; want T=4", info, err)
	}
}

// TestRehydrateOverCapacityKeepsJournals: restarting with a smaller
// session cap evicts the overflow from memory but must not tombstone
// its journals — a later restart at full capacity recovers everything.
func TestRehydrateOverCapacityKeepsJournals(t *testing.T) {
	const total = 6
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		seed := int64(i + 1)
		id := fmt.Sprintf("u%d", i)
		if _, err := srvA.CreateSession(CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
			t.Fatal(err)
		}
		if _, err := srvA.Step(bg, id, i); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Squeezed restart: only 2 sessions fit in memory.
	cfgB := durableConfig(t, dir)
	cfgB.MaxSessions = 2
	srvB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if n := srvB.Sessions().Len(); n != 2 {
		t.Fatalf("squeezed server holds %d sessions, want 2", n)
	}
	if tombs := srvB.Stats().Store.Tombstones; tombs != 0 {
		t.Fatalf("startup eviction tombstoned %d journals", tombs)
	}
	// Orphans — journaled but evicted from memory — must not wedge their
	// ids, and their history must never be silently truncated: a direct
	// re-create is refused (the journal survives), while an explicit
	// DELETE reclaims the id for a fresh start.
	var orphans []string
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("u%d", i)
		if _, err := srvB.GetSession(id); errors.Is(err, ErrNotFound) {
			orphans = append(orphans, id)
		}
	}
	if len(orphans) != total-2 {
		t.Fatalf("%d orphans, want %d", len(orphans), total-2)
	}
	if err := srvB.DeleteSession(orphans[0]); err != nil {
		t.Fatalf("delete of orphan %s failed: %v", orphans[0], err)
	}
	seed := int64(99)
	if _, err := srvB.CreateSession(CreateSessionRequest{ID: orphans[1], Seed: &seed}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("re-create over a surviving journal: %v, want ErrSessionExists", err)
	}
	if err := srvB.DeleteSession(orphans[1]); err != nil {
		t.Fatalf("delete of orphan %s failed: %v", orphans[1], err)
	}
	if _, err := srvB.CreateSession(CreateSessionRequest{ID: orphans[1], Seed: &seed}); err != nil {
		t.Fatalf("re-create after explicit delete: %v", err)
	}
	if _, err := srvB.Step(bg, orphans[1], 0); err != nil {
		t.Fatal(err)
	}
	srvB.Close()

	// Full-capacity restart: the deleted orphan is gone; the re-create
	// pushed the squeezed server past capacity again, so one live victim
	// was evicted and (correctly) tombstoned — leaving total-2 journals:
	// the re-created orphan at T=1, the untouched orphans, and the
	// surviving live session.
	srvC := newTestServer(t, durableConfig(t, dir))
	if st := srvC.Stats(); st.Store.Replayed != total-2 {
		t.Fatalf("replayed = %d after capacity squeeze, want %d", st.Store.Replayed, total-2)
	}
	if _, err := srvC.GetSession(orphans[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted orphan resurrected: %v", err)
	}
	if info, err := srvC.GetSession(orphans[1]); err != nil || info.T != 1 {
		t.Fatalf("re-created orphan: %+v, %v; want T=1", info, err)
	}
}

// TestWarmEntriesSurviveUntouchedRestart: persisted cache entries for a
// plan that a whole server life never recompiles must carry over to the
// next save instead of eroding away.
func TestWarmEntriesSurviveUntouchedRestart(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(3)
	// Two distinct plans: the default-ε session survives; the ε=0.9
	// session is deleted so its plan never recompiles in life B.
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "keep", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "drop", Seed: &seed, Epsilon: 0.9}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := srvA.Step(bg, "keep", k); err != nil {
			t.Fatal(err)
		}
		if _, err := srvA.Step(bg, "drop", k); err != nil {
			t.Fatal(err)
		}
	}
	_ = srvA.DeleteSession("drop")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Life B rehydrates only "keep": the ε=0.9 entries stay parked and
	// must survive B's own shutdown save.
	srvB, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := srvB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Life C: compiling the ε=0.9 plan must inject the carried entries.
	srvC := newTestServer(t, durableConfig(t, dir))
	base := srvC.Plans().WarmLoaded()
	if _, err := srvC.CreateSession(CreateSessionRequest{ID: "fresh", Epsilon: 0.9}); err != nil {
		t.Fatal(err)
	}
	if got := srvC.Plans().WarmLoaded(); got <= base {
		t.Fatalf("warm entries for the untouched plan eroded: warm_loaded %d -> %d", base, got)
	}
}

// TestGracefulShutdownDrains: steps accepted before Shutdown complete
// successfully (not ErrSessionClosed), while requests arriving during
// the drain are rejected with ErrDraining.
func TestGracefulShutdownDrains(t *testing.T) {
	const pending = 10
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.Workers = 1 // serialise so the queue stays busy during Shutdown
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	if _, err := srv.CreateSession(CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	dones := make([]chan stepOutcome, pending)
	for i := range dones {
		done, err := srv.stepAsync(context.Background(), "u", i%36)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		dones[i] = done
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	for i, done := range dones {
		out := <-done
		if out.err != nil {
			t.Fatalf("pending step %d died during graceful shutdown: %v", i, out.err)
		}
		if out.res.T != i {
			t.Fatalf("step %d served T=%d", i, out.res.T)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := srv.stepAsync(context.Background(), "u", 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("step after shutdown: %v, want ErrDraining", err)
	}
	if _, err := srv.CreateSession(CreateSessionRequest{ID: "v"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after shutdown: %v, want ErrDraining", err)
	}

	// All 10 steps were journaled: a restart resumes at T=10.
	srvB := newTestServer(t, durableConfig(t, dir))
	info, err := srvB.GetSession("u")
	if err != nil || info.T != pending {
		t.Fatalf("after drain+restart: %+v, %v; want T=%d", info, err, pending)
	}
}

// TestDurableImportSurvivesRestart: a session imported into a durable
// server is journaled atomically (snapshot + fresh WAL under a new
// generation), so a restart straight after the import — and further
// steps before and after it — recover the full migrated history and
// continue seed-for-seed identically to an unmigrated run.
func TestDurableImportSurvivesRestart(t *testing.T) {
	const pre, post = 5, 4
	seed := int64(23)
	traj := func(k int) int { return (k * 5) % 36 }

	// Unmigrated reference.
	ref := newTestServer(t, testConfig())
	if _, err := ref.CreateSession(CreateSessionRequest{ID: "mig", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	var want []StepResponse
	for k := 0; k < pre+post; k++ {
		res, err := ref.Step(bg, "mig", traj(k))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Source instance: in-memory is fine, the export carries everything.
	srvA := newTestServer(t, testConfig())
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "mig", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pre; k++ {
		if _, err := srvA.Step(bg, "mig", traj(k)); err != nil {
			t.Fatal(err)
		}
	}
	exp, err := srvA.ExportSession(context.Background(), "mig")
	if err != nil {
		t.Fatal(err)
	}

	// Durable target: import, step once, then crash (no graceful
	// shutdown) — recovery must see the imported history plus the step.
	dir := t.TempDir()
	srvB, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	info, err := srvB.ImportSession(exp)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if info.T != pre {
		t.Fatalf("imported at T=%d, want %d", info.T, pre)
	}
	got, err := srvB.Step(bg, "mig", traj(pre))
	if err != nil {
		t.Fatal(err)
	}
	w := want[pre]
	if got.Obs != w.Obs || got.Alpha != w.Alpha {
		t.Fatalf("first post-import step diverged: %+v vs %+v", got, w)
	}
	srvB.Close() // crash-style: WAL replay only

	srvC := newTestServer(t, durableConfig(t, dir))
	if st := srvC.Stats(); st.Store.Replayed != 1 || st.Store.ReplayFailures != 0 {
		t.Fatalf("restart after import: %+v", st.Store)
	}
	for k := pre + 1; k < pre+post; k++ {
		got, err := srvC.Step(bg, "mig", traj(k))
		if err != nil {
			t.Fatal(err)
		}
		w := want[k]
		if got.T != w.T || got.Obs != w.Obs || got.Alpha != w.Alpha ||
			got.Attempts != w.Attempts || got.Uniform != w.Uniform {
			t.Fatalf("post-restart step %d: got %+v, want %+v", k, got, w)
		}
	}
}
