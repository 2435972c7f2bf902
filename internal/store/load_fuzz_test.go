package store

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"priste/internal/world"
)

// fuzzLoadID is the session id FuzzLoadSession journals under.
const fuzzLoadID = "f"

// FuzzLoadSession drives the whole WAL loader — framing, meta, step and
// tombstone records, fingerprint chain, truncation and the .corrupt
// sidecar — with an arbitrary journal body behind the WAL magic. The
// loader may recover nothing or one session with the journal's id whose
// fingerprint is the fold of its tags; a second open of the same
// directory must recover exactly the same tags, fingerprint and RNG, so
// the first load's repairs never change what survives. The seed corpus
// is testdata/fuzz/FuzzLoadSession.
func FuzzLoadSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
			t.Fatal(err)
		}
		wal := filepath.Join(dir, "sessions", hex.EncodeToString([]byte(fuzzLoadID))+".wal")
		if err := os.WriteFile(wal, append(append([]byte(nil), walMagic...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		first := loadOnce(t, dir)
		second := loadOnce(t, dir)
		if (first == nil) != (second == nil) {
			t.Fatalf("first load recovered %v, second %v", first != nil, second != nil)
		}
		if first == nil {
			return
		}
		if !reflect.DeepEqual(first.Tags, second.Tags) || first.Fingerprint != second.Fingerprint ||
			!bytes.Equal(first.RNG, second.RNG) {
			t.Fatalf("reload changed the recovered state:\n first  %+v\n second %+v", first, second)
		}
	})
}

// loadOnce opens the store at dir, loads it, closes it, and returns the
// recovered session (nil when none), checking the per-load properties.
func loadOnce(t *testing.T, dir string) *SessionState {
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
	if len(states) > 1 {
		t.Fatalf("recovered %d sessions from one journal", len(states))
	}
	if len(states) == 0 {
		return nil
	}
	st := states[0]
	if st.Meta.ID != fuzzLoadID {
		t.Fatalf("recovered session %q from the journal of %q", st.Meta.ID, fuzzLoadID)
	}
	fp := world.FingerprintSeed
	for _, tag := range st.Tags {
		fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
	}
	if fp != st.Fingerprint {
		t.Fatalf("fingerprint %#x is not the fold %#x of the %d recovered tags", st.Fingerprint, fp, len(st.Tags))
	}
	return &st
}
