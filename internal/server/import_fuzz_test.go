package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"priste/internal/api"
	"priste/internal/core"
)

// realExports returns the JSON of real exports for FuzzImportSession's
// seed corpus: a fresh session, one inside its event window, one past
// it, one rehydrated after its server died without a shutdown, and the
// older build's export from testdata/parent-ledger.
func realExports(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	export := func(srv *Server, id string) {
		exp, err := srv.ExportSession(bg, id)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(exp)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	create := func(srv *Server, id string, seed int64, steps int) {
		if _, err := srv.CreateSession(api.CreateSessionRequest{ID: id, Seed: &seed}); err != nil {
			f.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			if _, err := srv.Step(bg, id, (k*7+int(seed))%36); err != nil {
				f.Fatal(err)
			}
		}
	}

	srv, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	create(srv, "fresh", 1, 0)
	create(srv, "mid-window", 2, 3) // the window is t = 2..4
	create(srv, "post-window", 3, 7)
	for _, id := range []string{"fresh", "mid-window", "post-window"} {
		export(srv, id)
	}

	// The in-process kill -9: close the store under the live sessions
	// with no final snapshot, then rehydrate from the WAL alone.
	dir := f.TempDir()
	st, err := New(durableConfig(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	create(st, "crashed", 4, 5)
	st.Close()
	re, err := New(durableConfig(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	defer re.Close()
	export(re, "crashed")

	parent, err := os.ReadFile(filepath.Join(parentLedger, "export.json"))
	if err != nil {
		f.Fatal(err)
	}
	return append(out, bytes.TrimSpace(parent))
}

// FuzzImportSession drives POST /v1/sessions/import's service half —
// SessionExport.Validate and restore, the path rehydrate shares — with
// any body the HTTP codec would decode. It never panics; a rejection is
// an invalid_argument or failed_precondition api.Error, never internal;
// and an accepted import re-exports the same bytes, except that the
// exporter writes an absent RNG state as the seed's fresh state and
// absent tags as an empty list.
func FuzzImportSession(f *testing.F) {
	for _, seed := range realExports(f) {
		f.Add(seed)
	}
	cfg := testConfig()
	cfg.Workers = 1
	f.Fuzz(func(t *testing.T, data []byte) {
		var exp api.SessionExport
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&exp) != nil {
			return
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.ImportSession(exp); err != nil {
			if c := api.CodeOf(err); c != api.CodeInvalidArgument && c != api.CodeFailedPrecondition {
				t.Fatalf("import rejected with code %q: %v", c, err)
			}
			return
		}
		got, err := srv.ExportSession(bg, exp.ID)
		if err != nil {
			t.Fatalf("export of an accepted import: %v", err)
		}
		want := exp
		if len(want.RNG) == 0 {
			want.RNG, err = core.NewSessionRNG(want.Seed).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
		}
		if want.Tags == nil {
			want.Tags = []core.ReleaseTag{}
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("re-export\n%s\nof the accepted import\n%s", gotJSON, wantJSON)
		}
	})
}
