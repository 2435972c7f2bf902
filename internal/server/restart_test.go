package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/store"
)

// durableConfig is testConfig over a file store in dir. SnapshotEvery 4
// exercises mid-run WAL compaction.
func durableConfig(t testing.TB, dir string) Config {
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

// TestStoreCapabilitiesWired: the server reaches FileStore's optional
// capabilities only through anonymous interface assertions, so nothing
// fails to compile when one goes missing. With fsync on, one step must
// time at least one WAL fsync into priste_wal_fsync_seconds, and a
// corrupt WAL suffix found at rehydration must be logged through
// Config.Logger.
func TestStoreCapabilitiesWired(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = st
	srvA := newTestServer(t, cfg)
	seed := int64(5)
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Step(bg, "u", 1); err != nil {
		t.Fatal(err)
	}
	if n := srvA.metrics.walFsync.Count(); n < 1 {
		t.Fatalf("priste_wal_fsync_seconds count = %d after a durable step, want >= 1", n)
	}
	srvA.Close()

	// Extend the journal with a well-formed step whose fingerprint breaks
	// the chain: a corrupt suffix, not a torn tail.
	raw, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	states, err := raw.LoadSessions()
	if err != nil || len(states) != 1 {
		t.Fatalf("LoadSessions = %d states, %v", len(states), err)
	}
	s0 := states[0]
	bad := store.StepRecord{T: len(s0.Tags), Tag: core.ReleaseTag{AlphaBits: 1, Obs: 2}, Fingerprint: s0.Fingerprint ^ 0xdead}
	if err := raw.AppendStep(s0.Meta.ID, s0.Gen, bad); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	var logBuf syncBuffer
	cfgB := durableConfig(t, dir)
	cfgB.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	newTestServer(t, cfgB)
	if !strings.Contains(logBuf.String(), "wal suffix corrupt") {
		t.Fatalf("no corrupt-suffix warning in the server log:\n%s", logBuf.String())
	}
}

// TestTombstonedSessionsStayDead: explicitly deleted sessions must not
// be rehydrated, while their peers are.
func TestTombstonedSessionsStayDead(t *testing.T) {
	sessions := servedSessions(t)
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	createAll(t, sessions, srvA.CreateSession)
	stepRange(t, srvA, sessions, 0, 3, nil)
	if err := srvA.DeleteSession(sessions[1].id); err != nil {
		t.Fatalf("delete %s: %v", sessions[1].id, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srvB := newTestServer(t, durableConfig(t, dir))
	for i, s := range sessions {
		info, err := srvB.GetSession(s.id)
		switch {
		case i == 1 && !errors.Is(err, ErrNotFound):
			t.Fatalf("deleted session resurrected: %v", err)
		case i != 1 && (err != nil || info.T != 3):
			t.Fatalf("%s: %+v, %v; want T=3", s.id, info, err)
		}
	}
}

// TestRestartStartsCold: a graceful shutdown persists no certified-release
// cache, so the restarted server's cache starts empty and refills from
// misses — with the same releases as an uninterrupted run.
func TestRestartStartsCold(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(5)
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if _, err := srvA.Step(bg, "u", k%36); err != nil {
			t.Fatal(err)
		}
	}
	if n := srvA.registry.Cache().Len(); n == 0 {
		t.Fatal("no certified decisions cached — test premise broken")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "certcache.snap")); !os.IsNotExist(err) {
		t.Fatalf("shutdown left a cert-cache file behind (stat err %v)", err)
	}

	// Rehydration recompiles the plan and re-commits the tag log; it
	// certifies nothing, so the fresh cache is empty until the first step.
	srvB := newTestServer(t, durableConfig(t, dir))
	if got := srvB.registry.Cache().Len(); got != 0 {
		t.Fatalf("restarted cache holds %d entries, want 0", got)
	}
	// The cold cache must not change behaviour: the restarted session's
	// next steps still match a cold uninterrupted run.
	ref := newTestServer(t, testConfig())
	if _, err := ref.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
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

// TestWorldMismatchRefusesReplay: sessions journaled under one world
// model must not replay into a server running a different one — the
// certified verdicts would be meaningless — and the journals must
// survive on disk. Two mismatches: a restart under another sigma, after
// which the original world recovers the journal, and a journal whose
// world tag carries the ";cutoff=" suffix older daemons wrote when they
// served the chain with its tails truncated, which a daemon serving the
// exact chain refuses like any other world.
func TestWorldMismatchRefusesReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		// restart edits the journals in dir if the input needs it and
		// returns the config the server restarts with; world is the tag
		// the journal was written under.
		restart func(t *testing.T, dir, world string) Config
		// recovers: a server under the original world replays the
		// journal afterwards.
		recovers bool
	}{
		{"sigma", func(t *testing.T, dir, _ string) Config {
			cfg := durableConfig(t, dir)
			cfg.Sigma = 2.5
			return cfg
		}, true},
		{"cutoff", func(t *testing.T, dir, world string) Config {
			rewriteWorld(t, dir, "u", world+";cutoff=0.0001")
			return durableConfig(t, dir)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srvA, err := New(durableConfig(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(4)
			if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
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

			// Same store, different world model: replay must be refused.
			srvB, err := New(tc.restart(t, dir, srvA.worldTag))
			if err != nil {
				t.Fatal(err)
			}
			st := srvB.Stats()
			if st.Store.Replayed != 0 || st.Store.ReplayFailures != 1 {
				t.Fatalf("cross-world replay: %+v, want 0 replayed / 1 failure", st.Store)
			}
			srvB.Close()

			// The journal survived the mismatch.
			if !tc.recovers {
				if states := loadJournals(t, dir); len(states) != 1 || states[0].Meta.ID != "u" || states[0].T != 3 {
					t.Fatalf("journals on disk after the refused replay: %+v; want u at T=3", states)
				}
				return
			}
			srvC := newTestServer(t, durableConfig(t, dir))
			if info, err := srvC.GetSession("u"); err != nil || info.T != 3 {
				t.Fatalf("after returning to the original world: %+v, %v; want T=3", info, err)
			}
		})
	}
}

// loadJournals returns the sessions journaled in dir.
func loadJournals(t *testing.T, dir string) []store.SessionState {
	t.Helper()
	st, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	states, err := st.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// rewriteWorld re-journals session id in dir under the world tag world,
// its history unchanged.
func rewriteWorld(t *testing.T, dir, id, world string) {
	t.Helper()
	st, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	states, err := st.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range states {
		if state.Meta.ID != id {
			continue
		}
		if err := st.DeleteSession(id); err != nil {
			t.Fatal(err)
		}
		state.Meta.World = world
		if _, err := st.ImportSession(state); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no journal for %q in %s", id, dir)
}

// TestOverBoundJournalIsNotReplayed: a journal whose events exceed the
// bounds create and import enforce must not replay either — its world
// model would cost a window-sized allocation at every startup. The
// daemon starts, counts the failure, keeps serving every other session,
// and leaves the journal on disk.
func TestOverBoundJournalIsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(4)
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "good", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Step(bg, "good", 0); err != nil {
		t.Fatal(err)
	}
	world := srvA.worldTag
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	tooMany := make([]string, maxSessionEvents+1)
	for i := range tooMany {
		tooMany[i] = "0-0@0-1"
	}
	st, err := store.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for id, events := range map[string][]string{
		"wide": {"0-0@0-5000"},
		"many": tooMany,
	} {
		meta := store.SessionMeta{ID: id, World: world, Seed: 1, Epsilon: 0.5, Alpha: 1,
			Mechanism: MechanismLaplace, Events: events}
		if _, err := st.CreateSession(meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if s := srvB.Stats().Store; s.Replayed != 1 || s.ReplayFailures != 2 {
		t.Fatalf("restart: %d replayed / %d failures, want 1 / 2", s.Replayed, s.ReplayFailures)
	}
	if res, err := srvB.Step(bg, "good", 1); err != nil || res.T != 1 {
		t.Fatalf("good session after restart: %+v, %v; want T=1", res, err)
	}
	srvB.Close()

	kept := map[string]bool{}
	for _, s := range loadJournals(t, dir) {
		kept[s.Meta.ID] = true
	}
	if !kept["wide"] || !kept["many"] {
		t.Fatalf("journals on disk after restart: %v; want wide and many kept", kept)
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
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := srvA.Step(bg, "u", k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "u"}); !errors.Is(err, ErrSessionExists) {
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
		if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
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
	if n := srvB.mgr.Len(); n != 2 {
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
	if _, err := srvB.CreateSession(api.CreateSessionRequest{ID: orphans[1], Seed: &seed}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("re-create over a surviving journal: %v, want ErrSessionExists", err)
	}
	if err := srvB.DeleteSession(orphans[1]); err != nil {
		t.Fatalf("delete of orphan %s failed: %v", orphans[1], err)
	}
	if _, err := srvB.CreateSession(api.CreateSessionRequest{ID: orphans[1], Seed: &seed}); err != nil {
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
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "u", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	dones := make([]<-chan api.StepOutcome, pending)
	for i := range dones {
		done, err := srv.StepAsync(context.Background(), "u", i%36)
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
		if out.Err != nil {
			t.Fatalf("pending step %d died during graceful shutdown: %v", i, out.Err)
		}
		if out.Resp.T != i {
			t.Fatalf("step %d served T=%d", i, out.Resp.T)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := srv.StepAsync(context.Background(), "u", 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("step after shutdown: %v, want ErrDraining", err)
	}
	if _, err := srv.CreateSession(api.CreateSessionRequest{ID: "v"}); !errors.Is(err, ErrDraining) {
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
	if _, err := ref.CreateSession(api.CreateSessionRequest{ID: "mig", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	var want []api.StepResponse
	for k := 0; k < pre+post; k++ {
		res, err := ref.Step(bg, "mig", traj(k))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Source instance: in-memory is fine, the export carries everything.
	srvA := newTestServer(t, testConfig())
	if _, err := srvA.CreateSession(api.CreateSessionRequest{ID: "mig", Seed: &seed}); err != nil {
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
