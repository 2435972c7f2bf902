package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadSession drives the whole journal loader — framing, meta,
// snapshot, step and tombstone records of any generations, the
// fingerprint chain, supersession, torn and corrupt tails — with an
// arbitrary journal body behind the journal magic. No load may panic;
// every recovered session's fingerprint is the fold of its tags; and a
// second open of the same directory must recover exactly the same
// sessions, so the first load's repairs (cutting a tail, superseding a
// corrupt suffix) never change what survives. The seed corpus is
// testdata/fuzz/FuzzLoadSession.
func FuzzLoadSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal"), append(append([]byte(nil), journalMagic...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		first := loadOnce(t, dir)
		second := loadOnce(t, dir)
		if len(first) != len(second) {
			t.Fatalf("first load recovered %d sessions, second %d", len(first), len(second))
		}
		for id, a := range first {
			b, ok := second[id]
			if !ok || !reflect.DeepEqual(a.Tags, b.Tags) || a.Fingerprint != b.Fingerprint ||
				!bytes.Equal(a.RNG, b.RNG) || !reflect.DeepEqual(a.Meta, b.Meta) {
				t.Fatalf("reload changed session %q:\n first  %+v\n second %+v", id, a, b)
			}
		}
	})
}

// loadOnce opens the store at dir, loads it, closes it, and returns the
// recovered sessions by id, checking the per-load properties.
func loadOnce(t *testing.T, dir string) map[string]SessionState {
	t.Helper()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	states, err := s.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]SessionState, len(states))
	for _, st := range states {
		if _, dup := out[st.Meta.ID]; dup {
			t.Fatalf("session %q recovered twice", st.Meta.ID)
		}
		if fp := foldTags(st); fp != st.Fingerprint {
			t.Fatalf("%q: fingerprint %#x is not the fold %#x of its %d tags", st.Meta.ID, st.Fingerprint, fp, len(st.Tags))
		}
		if st.T != len(st.Tags) {
			t.Fatalf("%q: T = %d with %d tags", st.Meta.ID, st.T, len(st.Tags))
		}
		out[st.Meta.ID] = st
	}
	return out
}
