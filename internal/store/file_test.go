package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"priste/internal/core"
	"priste/internal/world"
)

func testMeta(id string) SessionMeta {
	return SessionMeta{
		ID:        id,
		Seed:      42,
		Epsilon:   0.5,
		Alpha:     1.0,
		Mechanism: "laplace",
		Events:    []string{"0-9@3-7"},
	}
}

// appendTagged appends n steps with a consistent fingerprint chain
// starting from fp and returns the final fingerprint.
func appendTagged(t *testing.T, s Store, id string, gen uint64, startT int, fp uint64, tags []core.ReleaseTag, rng []byte) uint64 {
	t.Helper()
	for i, tag := range tags {
		fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
		if err := s.AppendStep(id, gen, StepRecord{T: startT + i, Tag: tag, Fingerprint: fp, RNG: rng}); err != nil {
			t.Fatalf("AppendStep %d: %v", startT+i, err)
		}
	}
	return fp
}

// mustCreate journals a session and returns its generation token.
func mustCreate(t *testing.T, s Store, meta SessionMeta) uint64 {
	t.Helper()
	gen, err := s.CreateSession(meta)
	if err != nil {
		t.Fatalf("CreateSession %s: %v", meta.ID, err)
	}
	return gen
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("alice")
	gen := mustCreate(t, s, meta)
	tags := []core.ReleaseTag{{AlphaBits: 100, Obs: 3}, {AlphaBits: 0, Obs: 7}, {AlphaBits: 55, Obs: 1}}
	rng := []byte("pcg:0123456789abcdef")
	fp := appendTagged(t, s, "alice", gen, 0, world.FingerprintSeed, tags, rng)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 {
		t.Fatalf("loaded %d sessions, want 1", len(states))
	}
	got := states[0]
	if got.Meta.ID != "alice" || got.Meta.Seed != 42 || got.Meta.Mechanism != "laplace" {
		t.Fatalf("meta = %+v", got.Meta)
	}
	if len(got.Tags) != len(tags) {
		t.Fatalf("tags = %d, want %d", len(got.Tags), len(tags))
	}
	for i := range tags {
		if got.Tags[i] != tags[i] {
			t.Fatalf("tag %d = %+v, want %+v", i, got.Tags[i], tags[i])
		}
	}
	if got.Fingerprint != fp {
		t.Fatalf("fingerprint %#x, want %#x", got.Fingerprint, fp)
	}
	if string(got.RNG) != string(rng) {
		t.Fatalf("rng = %q", got.RNG)
	}
	// The reloaded store keeps accepting appends for the session under
	// its fresh generation.
	appendTagged(t, s2, "alice", got.Gen, 3, fp, []core.ReleaseTag{{AlphaBits: 9, Obs: 0}}, nil)

	// Re-creating the id mints a new generation; a stale writer holding
	// the old token must not be able to touch the new journal.
	if err := s2.DeleteSession("alice"); err != nil {
		t.Fatal(err)
	}
	gen2 := mustCreate(t, s2, meta)
	if gen2 == got.Gen {
		t.Fatal("generation reused across incarnations")
	}
	if err := s2.AppendStep("alice", got.Gen, StepRecord{}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("append under dead generation: %v, want ErrUnknownSession", err)
	}
	if err := s2.WriteSnapshot(SessionState{Meta: meta}, got.Gen); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("snapshot under dead generation: %v, want ErrUnknownSession", err)
	}
	appendTagged(t, s2, "alice", gen2, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 1, Obs: 1}}, nil)
}

func TestFileStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("bob")
	gen := mustCreate(t, s, meta)
	tags := []core.ReleaseTag{{AlphaBits: 1, Obs: 1}, {AlphaBits: 2, Obs: 2}}
	fp := appendTagged(t, s, "bob", gen, 0, world.FingerprintSeed, tags, nil)
	if err := s.WriteSnapshot(SessionState{Meta: meta, Snapshot: core.Snapshot{T: len(tags), Tags: tags, Fingerprint: fp, RNG: []byte("state")}}, gen); err != nil {
		t.Fatal(err)
	}
	// The snapshot record supersedes the meta record and both steps:
	// they are dead bytes now, and the suffix appends after it.
	if st := s.Stats(); st.Snapshots != 1 || st.DeadBytes != journalMetaBytes(t, meta, gen)+stepBytes(gen, tags, fp) {
		t.Fatalf("after the snapshot: %+v; want 1 snapshot and the meta and 2 steps dead", st)
	}
	suffix := []core.ReleaseTag{{AlphaBits: 3, Obs: 3}}
	fp = appendTagged(t, s, "bob", gen, 2, fp, suffix, nil)
	s.Close()

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tags) != 3 || states[0].Fingerprint != fp {
		t.Fatalf("recovered %+v, want 3 tags fp %#x", states, fp)
	}
	if st := s2.Stats(); st.SessionsLoaded != 1 || st.LoadFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if string(states[0].RNG) != "state" {
		t.Fatalf("rng = %q, want the snapshot's", states[0].RNG)
	}
}

// journalMetaBytes is the size of the meta record CreateSession writes.
func journalMetaBytes(t *testing.T, meta SessionMeta, gen uint64) int64 {
	t.Helper()
	body, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(journalFrame(recMeta, gen, body)))
}

// stepBytes is the size of the step records appendTagged writes for
// tags from T 0 and fingerprint seed (ending at fp, checked).
func stepBytes(gen uint64, tags []core.ReleaseTag, fp uint64) int64 {
	var n int64
	f := world.FingerprintSeed
	for i, tag := range tags {
		f = world.FingerprintFold(f, tag.AlphaBits, tag.Obs)
		n += int64(len(stepFrame(gen, StepRecord{T: i, Tag: tag, Fingerprint: f})))
	}
	if f != fp {
		panic("stepBytes: fingerprint mismatch")
	}
	return n
}

func TestFileStoreTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	gen := mustCreate(t, s, testMeta("gone"))
	appendTagged(t, s, "gone", gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 4, Obs: 4}}, nil)
	if err := s.DeleteSession("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStep("gone", gen, StepRecord{}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("append after delete: %v, want ErrUnknownSession", err)
	}
	if err := s.DeleteSession("never-existed"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("delete of unknown id: %v, want ErrUnknownSession", err)
	}
	s.Close()

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("tombstoned session resurrected: %+v", states)
	}
}

// TestFileStoreTornTail simulates a crash mid-append: the torn record is
// dropped, the valid prefix survives, and appending resumes cleanly.
func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	gen := mustCreate(t, s, testMeta("torn"))
	tags := []core.ReleaseTag{{AlphaBits: 1, Obs: 1}, {AlphaBits: 2, Obs: 2}}
	fp := appendTagged(t, s, "torn", gen, 0, world.FingerprintSeed, tags, nil)
	s.Close()

	// Tear the final record in half.
	path := filepath.Join(dir, "journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tags) != 1 {
		t.Fatalf("recovered %+v, want 1 session with 1 tag", states)
	}
	if states[0].Fingerprint != world.FingerprintFold(world.FingerprintSeed, 1, 1) {
		t.Fatalf("prefix fingerprint wrong: %#x", states[0].Fingerprint)
	}
	// A torn tail is a normal crash artifact, not corruption.
	if st := s2.Stats(); st.CorruptSuffixes != 0 {
		t.Fatalf("torn tail counted as corruption: %+v", st)
	}
	// Appends after recovery continue the prefix, not the torn record.
	appendTagged(t, s2, "torn", states[0].Gen, 1, states[0].Fingerprint, []core.ReleaseTag{{AlphaBits: 8, Obs: 0}}, nil)
	s2.Close()

	s3, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	states, err = s3.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tags) != 2 {
		t.Fatalf("after resume: %+v, want 2 tags", states)
	}
	if states[0].Tags[1] != (core.ReleaseTag{AlphaBits: 8, Obs: 0}) {
		t.Fatalf("resumed tag = %+v", states[0].Tags[1])
	}
	if fp == states[0].Fingerprint {
		t.Fatal("fingerprint should differ from the untorn history")
	}
}

// TestFileStoreBrokenChain: a record whose fingerprint does not extend
// the chain ends the valid prefix.
func TestFileStoreBrokenChain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	gen := mustCreate(t, s, testMeta("chain"))
	fp := appendTagged(t, s, "chain", gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 1, Obs: 1}}, nil)
	// Valid frame, wrong fingerprint, then a record that would extend the
	// prefix: the suffix from the break on is corrupt, all of it.
	if err := s.AppendStep("chain", gen, StepRecord{T: 1, Tag: core.ReleaseTag{AlphaBits: 2, Obs: 2}, Fingerprint: fp ^ 0xdead}); err != nil {
		t.Fatal(err)
	}
	appendTagged(t, s, "chain", gen, 1, fp, []core.ReleaseTag{{AlphaBits: 3, Obs: 3}}, nil)
	s.Close()

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || len(states[0].Tags) != 1 {
		t.Fatalf("recovered %+v, want the 1-tag prefix", states)
	}
	// Real corruption is counted, and the damaged record stays in the
	// journal, superseded by a snapshot of the consistent prefix.
	if st := s2.Stats(); st.CorruptSuffixes != 1 || st.Snapshots != 1 {
		t.Fatalf("corrupt_suffixes = %d, snapshots = %d; want 1, 1", st.CorruptSuffixes, st.Snapshots)
	}
	bad := stepFrame(gen, StepRecord{T: 1, Tag: core.ReleaseTag{AlphaBits: 2, Obs: 2}, Fingerprint: fp ^ 0xdead})
	if raw, err := os.ReadFile(filepath.Join(dir, "journal")); err != nil || !bytes.Contains(raw, bad) {
		t.Fatalf("damaged record gone from the journal (%v)", err)
	}
	// Appends continue the prefix, and the next load neither stops at
	// the damaged record nor counts it again.
	fp2 := appendTagged(t, s2, "chain", states[0].Gen, 1, fp, []core.ReleaseTag{{AlphaBits: 7, Obs: 0}}, nil)
	s2.Close()
	s3, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	states, err = s3.LoadSessions()
	if err != nil || len(states) != 1 || len(states[0].Tags) != 2 || states[0].Fingerprint != fp2 {
		t.Fatalf("after resume: %+v, %v; want 2 tags fp %#x", states, err, fp2)
	}
	if st := s3.Stats(); st.CorruptSuffixes != 0 {
		t.Fatalf("superseded corruption counted again: %+v", st)
	}
}

func TestFileStoreWeirdSessionIDs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	id := "../../etc/passwd\x00/.."
	gen := mustCreate(t, s, testMeta(id))
	appendTagged(t, s, id, gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 5, Obs: 5}}, nil)
	s.Close()
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Meta.ID != id {
		t.Fatalf("hostile id round-trip failed: %+v", states)
	}
}

// TestFileStoreCorruptLoadBlocksRecreate: a session whose snapshot
// record is unreadable fails to load, but its records — the post-mortem
// evidence — must not be silently superseded by a re-create or dropped
// by a compaction; an explicit delete reclaims the id.
func TestFileStoreCorruptLoadBlocksRecreate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("hurt")
	gen := mustCreate(t, s, meta)
	appendTagged(t, s, "hurt", gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 1, Obs: 1}}, nil)
	s.Close()
	// A CRC-valid snapshot record whose body does not decode.
	garbage := journalFrame(recSnapshot, gen, []byte("garbage"))
	appendRaw(t, dir, garbage)

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("corrupt session loaded: %+v", states)
	}
	if st := s2.Stats(); st.LoadFailures != 1 {
		t.Fatalf("load_failures = %d, want 1", st.LoadFailures)
	}
	if _, err := s2.CreateSession(meta); !errors.Is(err, ErrAlreadyJournaled) {
		t.Fatalf("re-create over a failed load: %v, want ErrAlreadyJournaled", err)
	}
	if err := s2.AppendStep("hurt", gen, StepRecord{}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("append to a failed load: %v, want ErrUnknownSession", err)
	}
	// Churn other sessions until the journal compacts: the evidence stays.
	churnUntilCompacted(t, s2)
	if raw, err := os.ReadFile(filepath.Join(dir, "journal")); err != nil || !bytes.Contains(raw, garbage) {
		t.Fatalf("post-mortem record gone after compaction (%v)", err)
	}
	if err := s2.DeleteSession("hurt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.CreateSession(meta); err != nil {
		t.Fatalf("create after explicit delete: %v", err)
	}
}

// appendRaw appends bytes to the journal in dir, as a crash or a bug
// might have left them.
func appendRaw(t *testing.T, dir string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// churnUntilCompacted snapshots and deletes throwaway sessions until the
// store has compacted its journal once.
func churnUntilCompacted(t *testing.T, s *FileStore) {
	t.Helper()
	tags := make([]core.ReleaseTag, 1<<14)
	for i := range tags {
		tags[i] = core.ReleaseTag{AlphaBits: uint64(i), Obs: i % 7}
	}
	state := SessionState{Snapshot: core.Snapshot{T: len(tags), Tags: tags}}
	state.Fingerprint = foldTags(state)
	for i := 0; s.Stats().Compactions == 0; i++ {
		if i == 64 {
			t.Fatalf("no compaction after %d MiB of dead snapshots: %+v", i/4, s.Stats())
		}
		state.Meta = testMeta(fmt.Sprintf("churn-%d", i))
		if _, err := s.ImportSession(state); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteSession(state.Meta.ID); err != nil {
			t.Fatal(err)
		}
		settle(t, s)
	}
}

// TestFileStoreDirLock: two stores must not journal into one directory.
func TestFileStoreDirLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, false); err == nil {
		t.Fatal("second Open on a locked directory succeeded")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatalf("Open after release: %v", err)
	}
	s2.Close()
}

func TestNullStore(t *testing.T) {
	var s Null
	if _, err := s.CreateSession(testMeta("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStep("x", 0, StepRecord{}); err != nil {
		t.Fatal(err)
	}
	states, err := s.LoadSessions()
	if err != nil || states != nil {
		t.Fatalf("Null.LoadSessions = %v, %v", states, err)
	}
	if s.Stats().Enabled {
		t.Fatal("Null store reports Enabled")
	}
}

// TestFileStoreImportSession: an imported session's history is
// persisted immediately (snapshot + fresh WAL), survives a reload,
// accepts further appends under its generation, and an id the store
// already journals refuses the import.
func TestFileStoreImportSession(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	tags := []core.ReleaseTag{{AlphaBits: 100, Obs: 3}, {AlphaBits: 0, Obs: 7}}
	fp := world.FingerprintSeed
	for _, tag := range tags {
		fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
	}
	state := SessionState{
		Meta:     testMeta("mig"),
		Snapshot: core.Snapshot{T: len(tags), Tags: tags, Fingerprint: fp, RNG: []byte("pcg:fedcba9876543210")},
	}
	gen, err := s.ImportSession(state)
	if err != nil {
		t.Fatalf("ImportSession: %v", err)
	}
	// The id is journaled now: a second import or create must refuse.
	if _, err := s.ImportSession(state); !errors.Is(err, ErrAlreadyJournaled) {
		t.Fatalf("re-import: %v, want ErrAlreadyJournaled", err)
	}
	if _, err := s.CreateSession(testMeta("mig")); !errors.Is(err, ErrAlreadyJournaled) {
		t.Fatalf("create over import: %v, want ErrAlreadyJournaled", err)
	}
	// The journal accepts appends under the import's generation.
	appendTagged(t, s, "mig", gen, len(tags), fp, []core.ReleaseTag{{AlphaBits: 77, Obs: 5}}, []byte("pcg:aa"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	states, err := s2.LoadSessions()
	if err != nil || len(states) != 1 {
		t.Fatalf("LoadSessions = %d states, %v; want 1", len(states), err)
	}
	got := states[0]
	if got.Meta.ID != "mig" || len(got.Tags) != 3 {
		t.Fatalf("recovered %q with %d tags, want mig with 3", got.Meta.ID, len(got.Tags))
	}
	if got.Tags[2].AlphaBits != 77 || got.Tags[2].Obs != 5 {
		t.Fatalf("appended tag = %+v", got.Tags[2])
	}
}
