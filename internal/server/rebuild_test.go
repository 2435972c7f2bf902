package server

import (
	"context"
	"testing"
	"time"
)

// TestRebuildDeferredToFirstMiss: the engine folds a committed release
// into its operators only when a later check misses the certified-release
// cache. The work this moves — out of every hit step, out of start-up
// recovery, onto the first miss of each session — must be readable from
// the stats document alone: a session whose checks all hit rebuilds
// nothing, a restart rebuilds nothing, and the first miss afterwards
// rebuilds the session's whole history, once, as its own stage.
func TestRebuildDeferredToFirstMiss(t *testing.T) {
	const pre = 6
	dir := t.TempDir()
	srvA, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(5)
	run := func(srv *Server, id string, from, to int) []StepResponse {
		t.Helper()
		var out []StepResponse
		for k := from; k < to; k++ {
			res, err := srv.Step(bg, id, (k*5)%36)
			if err != nil {
				t.Fatalf("%s step %d: %v", id, k, err)
			}
			out = append(out, res)
		}
		return out
	}
	rebuilt := func(srv *Server) (commits, stageCount int64) {
		st := srv.Stats()
		return st.Steps.RebuiltCommits, st.Transports.Local.Stages["rebuild"].Count
	}

	// A fresh user misses on every step, and each miss folds in exactly
	// the one commit before it.
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "first", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	first := run(srvA, "first", 0, pre)
	if n, _ := rebuilt(srvA); n != pre-1 {
		t.Fatalf("all-miss session of %d steps rebuilt %d commits, want %d", pre, n, pre-1)
	}
	// Its twin replays the same seed and trajectory from the cache: no
	// operator is ever built for it.
	if _, err := srvA.CreateSession(CreateSessionRequest{ID: "twin", Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "twin", run(srvA, "twin", 0, pre), first)
	st := srvA.Stats()
	if st.Steps.RebuiltCommits != pre-1 || st.Transports.Local.Stages["commit_hit"].Count != pre {
		t.Fatalf("all-hit twin: rebuilt_commits %d (want %d), commit_hit count %d (want %d)",
			st.Steps.RebuiltCommits, pre-1, st.Transports.Local.Stages["commit_hit"].Count, pre)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart validates both journals and multiplies nothing.
	srvB := newTestServer(t, durableConfig(t, dir))
	if st := srvB.Stats(); st.Store.Replayed != 2 || st.Store.ReplayFailures != 0 {
		t.Fatalf("replayed %d, failures %d", st.Store.Replayed, st.Store.ReplayFailures)
	}
	if n, stage := rebuilt(srvB); n != 0 || stage != 0 {
		t.Fatalf("restart rebuilt %d commits in %d rebuild stages before any step", n, stage)
	}
	// The first new step of "first" misses and pays for its whole history,
	// once; the twin then hits on the same release and still owns nothing.
	next := run(srvB, "first", pre, pre+1)
	if n, stage := rebuilt(srvB); n != pre || stage != 1 {
		t.Fatalf("first miss after restart rebuilt %d commits in %d stages, want %d in 1", n, stage, pre)
	}
	sameSteps(t, "twin after restart", run(srvB, "twin", pre, pre+1), next)
	if n, stage := rebuilt(srvB); n != pre || stage != 1 {
		t.Fatalf("the twin's hit step rebuilt: %d commits in %d stages", n, stage)
	}
}
