package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"priste/internal/api"
)

// parentLedger is testdata/parent-ledger: journals and an export written
// by an older build, before the ledger types were declared once, in the
// per-session file layout the store migrates from. See its README.md for
// how it was made. The store's files are
//
//	sessions/<hex id>.wal   wal-only (3 steps), snap-wal (WAL suffix), torn
//	sessions/<hex id>.snap  snap-wal (the first 4 steps)
//	export.json             GET /v1/sessions/exported/export, 6 steps
//	expect.json             per journaled session: the older build's export
//	                        after a restart on a copy of sessions/, and its
//	                        next three releases (locations 20, 21, 22)
const parentLedger = "testdata/parent-ledger"

// copyLedger copies the fixture journals into a fresh store directory:
// loading truncates a torn tail, so the committed files are never opened
// for writing.
func copyLedger(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "sessions"), os.DirFS(filepath.Join(parentLedger, "sessions"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRestartParentLedger: journals an older build wrote — WAL only,
// snapshot plus WAL suffix, and a torn last record — rehydrate to the
// tags, fingerprint and RNG state that build rehydrated them to, their
// next releases are the ones it made, and its export imports and
// re-exports byte for byte.
func TestRestartParentLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(parentLedger, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var expect map[string]struct {
		Rehydrated json.RawMessage `json:"rehydrated"`
		Next       []struct {
			T        int     `json:"t"`
			Obs      int     `json:"obs"`
			Alpha    float64 `json:"alpha"`
			Attempts int     `json:"attempts"`
			Uniform  bool    `json:"uniform"`
		} `json:"next"`
	}
	if err := json.Unmarshal(raw, &expect); err != nil {
		t.Fatal(err)
	}
	if len(expect) != 3 {
		t.Fatalf("expect.json names %d sessions, want 3", len(expect))
	}

	srv := newTestServer(t, durableConfig(t, copyLedger(t)))
	if st := srv.Stats().Store; st.Replayed != 3 || st.ReplayFailures != 0 {
		t.Fatalf("replayed %d, %d failures; want 3, 0", st.Replayed, st.ReplayFailures)
	}
	for id, want := range expect {
		exp, err := srv.ExportSession(bg, id)
		if err != nil {
			t.Fatalf("%s: export: %v", id, err)
		}
		got, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		var wantJSON bytes.Buffer
		if err := json.Compact(&wantJSON, want.Rehydrated); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON.Bytes()) {
			t.Fatalf("%s rehydrated to\n%s\nthe older build to\n%s", id, got, wantJSON.Bytes())
		}
		for k, next := range want.Next {
			res, err := srv.Step(bg, id, 20+k)
			if err != nil {
				t.Fatalf("%s: step %d: %v", id, next.T, err)
			}
			if res.T != next.T || res.Obs != next.Obs || math.Float64bits(res.Alpha) != math.Float64bits(next.Alpha) ||
				res.Attempts != next.Attempts || res.Uniform != next.Uniform {
				t.Fatalf("%s: released %+v, the older build %+v", id, res, next)
			}
		}
	}

	fixture, err := os.ReadFile(filepath.Join(parentLedger, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture = bytes.TrimSpace(fixture)
	var imp api.SessionExport
	if err := json.Unmarshal(fixture, &imp); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ImportSession(imp); err != nil {
		t.Fatalf("import: %v", err)
	}
	exp, err := srv.ExportSession(bg, imp.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatalf("re-export\n%s\ndiffers from the older build's export\n%s", got, fixture)
	}
}

// TestRestartMigratedLedger: the first start on the older build's
// per-session files migrates them into the journal and removes them;
// a second start reads the journal alone and rehydrates the same
// exports and the same next releases.
func TestRestartMigratedLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(parentLedger, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var expect map[string]struct {
		Rehydrated json.RawMessage `json:"rehydrated"`
		Next       []api.StepResponse
	}
	if err := json.Unmarshal(raw, &expect); err != nil {
		t.Fatal(err)
	}
	dir := copyLedger(t)
	first, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	if _, err := os.Stat(filepath.Join(dir, "sessions")); !os.IsNotExist(err) {
		t.Fatalf("sessions/ survived the migration: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal")); err != nil {
		t.Fatalf("no journal after the migration: %v", err)
	}

	srv := newTestServer(t, durableConfig(t, dir))
	if st := srv.Stats().Store; st.Replayed != 3 || st.ReplayFailures != 0 || st.LoadFailures != 0 {
		t.Fatalf("second start replayed %d, %d replay / %d load failures; want 3, 0, 0", st.Replayed, st.ReplayFailures, st.LoadFailures)
	}
	for id, want := range expect {
		exp, err := srv.ExportSession(bg, id)
		if err != nil {
			t.Fatalf("%s: export: %v", id, err)
		}
		got, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		var wantJSON bytes.Buffer
		if err := json.Compact(&wantJSON, want.Rehydrated); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON.Bytes()) {
			t.Fatalf("%s rehydrated from the journal to\n%s\nthe older build to\n%s", id, got, wantJSON.Bytes())
		}
		for k, next := range want.Next {
			res, err := srv.Step(bg, id, 20+k)
			if err != nil {
				t.Fatalf("%s: step %d: %v", id, next.T, err)
			}
			if res.T != next.T || res.Obs != next.Obs || math.Float64bits(res.Alpha) != math.Float64bits(next.Alpha) ||
				res.Attempts != next.Attempts || res.Uniform != next.Uniform {
				t.Fatalf("%s: released %+v from the journal, the older build %+v", id, res, next)
			}
		}
	}
}
