package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"priste/internal/core"
	"priste/internal/world"
)

// settle waits for the compactor to catch up: until the journal's dead
// bytes are back inside the compaction rule.
func settle(t *testing.T, s *FileStore) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		due := s.compactDueLocked()
		s.mu.Unlock()
		if !due {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never caught up: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// frameEnds returns the end offset of every whole frame of a journal.
func frameEnds(t *testing.T, journal []byte) []int64 {
	t.Helper()
	sc := newScanner(bytes.NewReader(journal), int64(len(journalMagic)), int64(len(journal)))
	var ends []int64
	for {
		if _, _, _, err := sc.next(true); err != nil {
			return ends
		}
		ends = append(ends, sc.off)
	}
}

// TestJournalTearEveryByte: cutting the journal at any byte of its last
// three frames loads exactly the sessions of the whole frames before the
// cut, counts no corruption, and cuts the torn frame off.
func TestJournalTearEveryByte(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	genA := mustCreate(t, s, testMeta("a"))
	genB := mustCreate(t, s, testMeta("b"))
	fpA := appendTagged(t, s, "a", genA, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 1, Obs: 1}}, []byte("a0"))
	fpB := appendTagged(t, s, "b", genB, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 2, Obs: 2}}, []byte("b0"))
	// The last three frames: a step, a snapshot, a tombstone.
	appendTagged(t, s, "a", genA, 1, fpA, []core.ReleaseTag{{AlphaBits: 3, Obs: 3}}, []byte("a1"))
	snapB := SessionState{Meta: testMeta("b"), Snapshot: core.Snapshot{T: 1, Tags: []core.ReleaseTag{{AlphaBits: 2, Obs: 2}}, Fingerprint: fpB, RNG: []byte("snap")}}
	if err := s.WriteSnapshot(snapB, genB); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSession("a"); err != nil {
		t.Fatal(err)
	}
	// Read before Close, which compacts a journal this dead.
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	ends := frameEnds(t, journal)
	if len(ends) != 7 || ends[6] != int64(len(journal)) {
		t.Fatalf("journal frames end at %v (length %d), want 7 frames", ends, len(journal))
	}
	tags := func(ts ...core.ReleaseTag) []core.ReleaseTag { return ts }
	a1 := tags(core.ReleaseTag{AlphaBits: 1, Obs: 1})
	a2 := tags(core.ReleaseTag{AlphaBits: 1, Obs: 1}, core.ReleaseTag{AlphaBits: 3, Obs: 3})
	b1 := tags(core.ReleaseTag{AlphaBits: 2, Obs: 2})
	type want struct {
		tags []core.ReleaseTag
		rng  string
	}
	// What survives with whole frames up to ends[k-1], for k = 4, 5, 6.
	prefixes := map[int]map[string]want{
		4: {"a": {a1, "a0"}, "b": {b1, "b0"}},
		5: {"a": {a2, "a1"}, "b": {b1, "b0"}},
		6: {"a": {a2, "a1"}, "b": {b1, "snap"}},
	}
	for cut := ends[3]; cut < ends[6]; cut++ {
		whole := 4
		for whole < 6 && ends[whole] <= cut {
			whole++
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "journal"), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(cdir, false)
		if err != nil {
			t.Fatal(err)
		}
		states, err := cs.LoadSessions()
		st := cs.Stats()
		cs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.CorruptSuffixes != 0 || st.LoadFailures != 0 || st.JournalBytes != ends[whole-1] {
			t.Fatalf("cut at %d: %+v; want no corruption and the journal cut to %d", cut, st, ends[whole-1])
		}
		got := map[string]want{}
		for _, state := range states {
			got[state.Meta.ID] = want{state.Tags, string(state.RNG)}
		}
		if !reflect.DeepEqual(got, prefixes[whole]) {
			t.Fatalf("cut at %d (%d whole frames): loaded %+v, want %+v", cut, whole, got, prefixes[whole])
		}
	}
}

// compactedCrashImages builds a journal that a DeleteSession compacts,
// and returns the journal as the compaction found it, the compacted
// journal, and the sessions both load to.
func compactedCrashImages(t *testing.T) (before, after []byte, want map[string]SessionState) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("keep-%d", i)
		gen := mustCreate(t, s, testMeta(id))
		appendTagged(t, s, id, gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: uint64(i), Obs: i}, {AlphaBits: 9, Obs: 1}}, []byte(id))
	}
	tags := make([]core.ReleaseTag, 1<<14)
	for i := range tags {
		tags[i] = core.ReleaseTag{AlphaBits: uint64(i), Obs: i % 5}
	}
	big := SessionState{Snapshot: core.Snapshot{T: len(tags), Tags: tags}}
	big.Fingerprint = foldTags(big)
	for i := 0; ; i++ {
		big.Meta = testMeta(fmt.Sprintf("big-%d", i))
		gen, err := s.ImportSession(big)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := os.ReadFile(filepath.Join(dir, "journal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteSession(big.Meta.ID); err != nil {
			t.Fatal(err)
		}
		settle(t, s)
		if s.Stats().Compactions == 1 {
			before = append(pre, journalFrame(recTombstone, gen, nil)...)
			break
		}
	}
	after, err = os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", len(before), len(after))
	}
	return before, after, loadImage(t, after, nil)
}

// loadImage loads a store directory holding journal and, when tmp is
// not nil, a journal.tmp.
func loadImage(t *testing.T, journal, tmp []byte) map[string]SessionState {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if tmp != nil {
		if err := os.WriteFile(filepath.Join(dir, "journal.tmp"), tmp, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := loadOnce(t, dir)
	if _, err := os.Stat(filepath.Join(dir, "journal.tmp")); !os.IsNotExist(err) {
		t.Fatalf("journal.tmp survived the open: %v", err)
	}
	return got
}

// TestJournalTmpCrashImage: a crash mid-compaction leaves journal.tmp
// beside the old journal (before the rename) or the new one (a later
// compaction's partial copy); either image loads exactly what the
// compacted journal loads.
func TestJournalTmpCrashImage(t *testing.T) {
	before, after, want := compactedCrashImages(t)
	if len(want) != 4 {
		t.Fatalf("compacted journal loads %d sessions, want 4", len(want))
	}
	for name, img := range map[string][2][]byte{
		"old journal, whole tmp":   {before, after},
		"old journal, partial tmp": {before, after[:len(after)/2]},
		"new journal, partial tmp": {after, before[:len(before)/3]},
		"old journal alone":        {before, nil},
	} {
		if got := loadImage(t, img[0], img[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: loaded %+v, want %+v", name, got, want)
		}
	}
}

// TestGenerationsNeverReused: a store that creates sessions before, or
// without, LoadSessions still mints generations past every one its
// journal holds, deleted ones included.
func TestGenerationsNeverReused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	note := func(id string, gen uint64) {
		t.Helper()
		if prev, ok := seen[gen]; ok {
			t.Fatalf("generation %d minted for %q and %q", gen, prev, id)
		}
		seen[gen] = id
	}
	for _, id := range []string{"a", "b", "c"} {
		note(id, mustCreate(t, s, testMeta(id)))
	}
	if err := s.DeleteSession("c"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// No LoadSessions: creates still see the journal.
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	note("d", mustCreate(t, s2, testMeta("d")))
	if _, err := s2.CreateSession(testMeta("a")); !errors.Is(err, ErrAlreadyJournaled) {
		t.Fatalf("create of a journaled id before LoadSessions: %v, want ErrAlreadyJournaled", err)
	}
	s2.Close()

	// Create first, then LoadSessions.
	s3, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	note("e", mustCreate(t, s3, testMeta("e")))
	states, err := s3.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, st := range states {
		got[st.Meta.ID] = st.Gen
		if seen[st.Gen] != st.Meta.ID {
			t.Fatalf("%q loaded under generation %d, minted for %q", st.Meta.ID, st.Gen, seen[st.Gen])
		}
	}
	if len(got) != 3 || got["a"] == 0 || got["b"] == 0 || got["d"] == 0 {
		t.Fatalf("loaded %v, want a, b and d", got)
	}
}

// TestCompactionBoundsJournal: over 10 000 cycles of create, 12 appends
// and delete beside resident sessions, the journal never exceeds
// live + max(live, 1 MiB) bytes once the compactor has run, where live
// is counted here from the records the resident sessions and the cycle
// wrote; the store's own counters agree, and a reload recovers the
// resident sessions.
func TestCompactionBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal")
	live := int64(len(journalMagic))
	create := func(id string) uint64 {
		meta := testMeta(id)
		gen := mustCreate(t, s, meta)
		live += journalMetaBytes(t, meta, gen)
		return gen
	}
	appendN := func(id string, gen uint64, from, n int, fp uint64) uint64 {
		for i := from; i < from+n; i++ {
			fp = world.FingerprintFold(fp, uint64(i), i%9)
			rec := StepRecord{T: i, Tag: core.ReleaseTag{AlphaBits: uint64(i), Obs: i % 9}, Fingerprint: fp, RNG: []byte("pcg:0123456789abcdef")}
			if err := s.AppendStep(id, gen, rec); err != nil {
				t.Fatal(err)
			}
			live += int64(len(stepFrame(gen, rec)))
		}
		return fp
	}
	type resident struct {
		gen uint64
		fp  uint64
	}
	residents := map[string]*resident{}
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("resident-%d", i)
		r := &resident{gen: create(id)}
		r.fp = appendN(id, r.gen, 0, 4, world.FingerprintSeed)
		residents[id] = r
	}
	check := func(cycle int) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if info.Size() != st.JournalBytes || st.JournalBytes-st.DeadBytes != live {
			t.Fatalf("cycle %d: file %d B, stats %+v; want journal_bytes = file and %d live", cycle, info.Size(), st, live)
		}
		if bound := live + max(live, compactFloor); info.Size() > bound {
			t.Fatalf("cycle %d: journal %d B exceeds live %d + max(live, 1 MiB) = %d", cycle, info.Size(), live, bound)
		}
	}
	for cycle := 0; cycle < 10000; cycle++ {
		id := fmt.Sprintf("cycle-%d", cycle)
		before := live
		gen := create(id)
		appendN(id, gen, 0, 12, world.FingerprintSeed)
		check(cycle)
		if err := s.DeleteSession(id); err != nil {
			t.Fatal(err)
		}
		live = before
		settle(t, s)
		check(cycle)
		if cycle%1000 == 0 {
			rid := fmt.Sprintf("resident-%d", cycle/1000)
			r := residents[rid]
			r.fp = appendN(rid, r.gen, 4, 1, r.fp)
		}
	}
	st := s.Stats()
	if st.Compactions < 2 {
		t.Fatalf("compactions = %d over 10 000 cycles, want several", st.Compactions)
	}
	s.Close()
	got := loadOnce(t, dir)
	if len(got) != len(residents) {
		t.Fatalf("reload recovered %d sessions, want %d", len(got), len(residents))
	}
	for id, r := range residents {
		if got[id].Fingerprint != r.fp || got[id].Gen != r.gen {
			t.Fatalf("%s reloaded as gen %d fp %#x, want gen %d fp %#x", id, got[id].Gen, got[id].Fingerprint, r.gen, r.fp)
		}
	}
}

// TestFsyncEveryAppendCounted: with fsync on, every append returns only
// after a sync that began after its write, so the sync counter has moved
// between the call and its return, even with appenders sharing syncs.
func TestFsyncEveryAppendCounted(t *testing.T) {
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, steps = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("w%d", w)
		gen := mustCreate(t, s, testMeta(id))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fp := world.FingerprintSeed
			for i := 0; i < steps; i++ {
				fp = world.FingerprintFold(fp, 1, i)
				before := s.Stats().Fsyncs
				if err := s.AppendStep(id, gen, StepRecord{T: i, Tag: core.ReleaseTag{AlphaBits: 1, Obs: i}, Fingerprint: fp}); err != nil {
					errs <- err
					return
				}
				if after := s.Stats().Fsyncs; after <= before {
					errs <- fmt.Errorf("%s step %d returned with fsyncs %d, as before the call", id, i, after)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Fsyncs > st.Appends+writers {
		t.Fatalf("%d fsyncs for %d appends and %d creates", st.Fsyncs, st.Appends, writers)
	}
}

// flakyFile tears the next failWrites writes in half and fails the next
// failTruncates truncations.
type flakyFile struct {
	journalFile
	failWrites, failTruncates int
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.failWrites > 0 {
		f.failWrites--
		n, _ := f.journalFile.WriteAt(p[:len(p)/2], off)
		return n, errors.New("device full")
	}
	return f.journalFile.WriteAt(p, off)
}

func (f *flakyFile) Truncate(size int64) error {
	if f.failTruncates > 0 {
		f.failTruncates--
		return errors.New("i/o error")
	}
	return f.journalFile.Truncate(size)
}

// TestFailedWriteKeepsJournal: a torn append is cut off before another
// append lands — the next append retries a failed cut and fails rather
// than write behind it — so the journal stays loadable, every other
// session keeps every record, and the failed session loads its prefix.
func TestFailedWriteKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	genA := mustCreate(t, s, testMeta("a"))
	genB := mustCreate(t, s, testMeta("b"))
	fpA := appendTagged(t, s, "a", genA, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 1, Obs: 1}}, nil)
	fpB := appendTagged(t, s, "b", genB, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 2, Obs: 2}}, nil)

	flaky := &flakyFile{journalFile: s.f, failWrites: 1, failTruncates: 2}
	s.mu.Lock()
	s.f = flaky
	s.mu.Unlock()
	lostA := world.FingerprintFold(fpA, 3, 3)
	if err := s.AppendStep("a", genA, StepRecord{T: 1, Tag: core.ReleaseTag{AlphaBits: 3, Obs: 3}, Fingerprint: lostA}); err == nil {
		t.Fatal("torn append reported success")
	}
	// The cut failed: the next append retries it, fails, and writes nothing.
	nextB := world.FingerprintFold(fpB, 4, 4)
	recB := StepRecord{T: 1, Tag: core.ReleaseTag{AlphaBits: 4, Obs: 4}, Fingerprint: nextB}
	if err := s.AppendStep("b", genB, recB); err == nil {
		t.Fatal("append behind an uncut torn tail reported success")
	}
	if err := s.AppendStep("b", genB, recB); err != nil {
		t.Fatalf("append after the cut: %v", err)
	}
	fpB = appendTagged(t, s, "b", genB, 2, nextB, []core.ReleaseTag{{AlphaBits: 5, Obs: 5}}, nil)
	// Session a steps on past its lost record: a gap.
	if err := s.AppendStep("a", genA, StepRecord{T: 2, Tag: core.ReleaseTag{AlphaBits: 6, Obs: 6}, Fingerprint: world.FingerprintFold(lostA, 6, 6)}); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, "journal")); err != nil || info.Size() != s.Stats().JournalBytes {
		t.Fatalf("journal file %v B (%v), want %d: torn bytes left behind", info.Size(), err, s.Stats().JournalBytes)
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
	got := map[string]SessionState{}
	for _, st := range states {
		got[st.Meta.ID] = st
	}
	if b := got["b"]; len(b.Tags) != 3 || b.Fingerprint != fpB {
		t.Fatalf("b recovered %+v, want 3 tags fp %#x", b, fpB)
	}
	if a := got["a"]; len(a.Tags) != 1 || a.Fingerprint != fpA {
		t.Fatalf("a recovered %+v, want its 1-tag prefix fp %#x", a, fpA)
	}
	if st := s2.Stats(); st.CorruptSuffixes != 1 || st.LoadFailures != 0 {
		t.Fatalf("stats %+v, want a's gap as the one corrupt suffix", st)
	}
}

// TestJournalCorruptTailKept: a damaged frame with bytes after it ends
// the load there; the rest is kept in journal.corrupt and the journal
// is cut, so appends after the load land where the next load reads them.
func TestJournalCorruptTailKept(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	gen := mustCreate(t, s, testMeta("x"))
	appendTagged(t, s, "x", gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 1, Obs: 1}, {AlphaBits: 2, Obs: 2}}, nil)
	s.Close()
	path := filepath.Join(dir, "journal")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, journal)
	// Flip a payload byte of the first step: the second step follows it.
	journal[ends[0]+4] ^= 0xff
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	states, err := s2.LoadSessions()
	if err != nil || len(states) != 1 || len(states[0].Tags) != 0 {
		t.Fatalf("recovered %+v, %v; want x with no tags", states, err)
	}
	if st := s2.Stats(); st.CorruptSuffixes != 1 || st.JournalBytes != ends[0] {
		t.Fatalf("stats %+v; want 1 corrupt suffix and the journal cut to %d", st, ends[0])
	}
	kept, err := os.ReadFile(filepath.Join(dir, "journal.corrupt"))
	if err != nil || !bytes.Equal(kept, journal[ends[0]:]) {
		t.Fatalf("journal.corrupt holds %d bytes (%v), want the %d from the damaged frame on", len(kept), err, len(journal)-int(ends[0]))
	}
	fp := appendTagged(t, s2, "x", states[0].Gen, 0, world.FingerprintSeed, []core.ReleaseTag{{AlphaBits: 5, Obs: 5}}, nil)
	s2.Close()
	got := loadOnce(t, dir)
	if x := got["x"]; len(x.Tags) != 1 || x.Fingerprint != fp {
		t.Fatalf("after the cut: %+v, want the 1 tag appended since", x)
	}
}

// TestBlockedImportDeletes: a generation whose first record, an
// imported snapshot, fails its fingerprint check is blocked under its
// own token, so deleting the id tombstones that generation and the next
// load neither blocks nor counts it.
func TestBlockedImportDeletes(t *testing.T) {
	dir := t.TempDir()
	state := SessionState{Meta: testMeta("bent"), Snapshot: core.Snapshot{T: 1, Tags: []core.ReleaseTag{{AlphaBits: 1, Obs: 1}}, Fingerprint: 12345}}
	body, err := encodeSnapshot(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal"), append(append([]byte(nil), journalMagic...), journalFrame(recSnapshot, 7, body)...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if states, err := s.LoadSessions(); err != nil || len(states) != 0 || s.Stats().LoadFailures != 1 {
		t.Fatalf("loaded %+v, %v, %+v; want no session and 1 load failure", states, err, s.Stats())
	}
	if gen := mustCreate(t, s, testMeta("other")); gen <= 7 {
		t.Fatalf("minted generation %d, not past the blocked 7", gen)
	}
	if err := s.DeleteSession("bent"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if states, err := s2.LoadSessions(); err != nil || len(states) != 1 || s2.Stats().LoadFailures != 0 {
		t.Fatalf("after delete: %+v, %v, %+v; want only other and no load failure", states, err, s2.Stats())
	}
	if _, err := s2.CreateSession(testMeta("bent")); err != nil {
		t.Fatalf("re-create after delete: %v", err)
	}
}

// TestLegacyMigration: a directory in the per-session layout migrates on
// the first open: a WAL-only session and a snapshot-plus-WAL session load
// their whole history from the journal, and their files go; a session
// whose snapshot does not decode keeps its files, counts a load failure
// and blocks its id until a delete removes them.
func TestLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(id, ext string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(legacy, fmt.Sprintf("%x", id)+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wal := func(id string, from int, fp uint64, tags ...core.ReleaseTag) ([]byte, uint64) {
		meta, err := json.Marshal(testMeta(id))
		if err != nil {
			t.Fatal(err)
		}
		out := appendFrame(append([]byte(nil), walMagic...), recMeta, meta)
		for i, tag := range tags {
			fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
			out = appendFrame(out, recStep, appendStep(nil, StepRecord{T: from + i, Tag: tag, Fingerprint: fp}))
		}
		return out, fp
	}
	walOnly, fpW := wal("w", 0, world.FingerprintSeed, core.ReleaseTag{AlphaBits: 1, Obs: 1}, core.ReleaseTag{AlphaBits: 2, Obs: 2})
	write("w", ".wal", walOnly)
	base := SessionState{Meta: testMeta("s"), Snapshot: core.Snapshot{T: 1, Tags: []core.ReleaseTag{{AlphaBits: 3, Obs: 3}}}}
	base.Fingerprint = foldTags(base)
	body, err := encodeSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	write("s", ".snap", appendFrame(append([]byte(nil), snapMagic...), recMeta, body))
	suffix, fpS := wal("s", 1, base.Fingerprint, core.ReleaseTag{AlphaBits: 4, Obs: 4})
	write("s", ".wal", suffix)
	write("bad", ".snap", []byte("PRSNAP01garbage"))

	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	states, err := s.LoadSessions()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]SessionState{}
	for _, st := range states {
		got[st.Meta.ID] = st
	}
	if len(got) != 2 || len(got["w"].Tags) != 2 || got["w"].Fingerprint != fpW || len(got["s"].Tags) != 2 || got["s"].Fingerprint != fpS {
		t.Fatalf("migrated %+v; want w and s with 2 tags each", got)
	}
	if st := s.Stats(); st.LoadFailures != 1 || st.Snapshots != 2 {
		t.Fatalf("stats %+v; want 1 load failure and 2 snapshot records", st)
	}
	left, err := os.ReadDir(legacy)
	if err != nil || len(left) != 1 {
		t.Fatalf("legacy files left: %v (%v); want only bad's snapshot", left, err)
	}
	if _, err := s.CreateSession(testMeta("bad")); !errors.Is(err, ErrAlreadyJournaled) {
		t.Fatalf("create over a failed legacy session: %v, want ErrAlreadyJournaled", err)
	}
	if err := s.DeleteSession("bad"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if again := loadOnce(t, dir); len(again) != 2 || !reflect.DeepEqual(again["s"].Tags, got["s"].Tags) {
		t.Fatalf("second open loaded %+v, want the 2 migrated sessions", again)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("emptied legacy directory survived the second open: %v", err)
	}
}

// TestRNGOutlivesScanWindow: a step record's RNG state is decoded as a
// view of the scanner's window, which the next window overwrites, so a
// loaded session must hold a copy. Each session's steps are written one
// session after another, so the first sessions' last steps sit in
// windows the load has long reused by the time it ends; every session,
// from the journal and from migrated legacy files, must come back with
// its last step's RNG.
func TestRNGOutlivesScanWindow(t *testing.T) {
	const window = 256 << 10
	rngOf := func(id string, i int) []byte {
		return []byte(fmt.Sprintf("pcg:%s:%08d:0123456789abcdef", id, i))
	}
	check := func(t *testing.T, got map[string]SessionState, ids []string, steps int) {
		t.Helper()
		if len(got) != len(ids) {
			t.Fatalf("loaded %d sessions, want %d", len(got), len(ids))
		}
		for _, id := range ids {
			st := got[id]
			if len(st.Tags) != steps {
				t.Fatalf("%s: %d tags, want %d", id, len(st.Tags), steps)
			}
			if want := rngOf(id, steps-1); !bytes.Equal(st.RNG, want) {
				t.Fatalf("%s: RNG %q, want %q", id, st.RNG, want)
			}
		}
	}
	tagOf := func(i int) core.ReleaseTag { return core.ReleaseTag{AlphaBits: uint64(i), Obs: i % 36} }

	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 800
		var ids []string
		for k := 0; k < 12; k++ {
			id := fmt.Sprintf("j%d", k)
			ids = append(ids, id)
			gen := mustCreate(t, s, testMeta(id))
			fp := world.FingerprintSeed
			for i := 0; i < steps; i++ {
				fp = world.FingerprintFold(fp, tagOf(i).AlphaBits, tagOf(i).Obs)
				if err := s.AppendStep(id, gen, StepRecord{T: i, Tag: tagOf(i), Fingerprint: fp, RNG: rngOf(id, i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, "journal"))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < 2*window {
			t.Fatalf("journal of %d bytes spans less than two scan windows", fi.Size())
		}
		check(t, loadOnce(t, dir), ids, steps)
	})

	t.Run("legacy", func(t *testing.T) {
		dir := t.TempDir()
		legacy := filepath.Join(dir, "sessions")
		if err := os.MkdirAll(legacy, 0o755); err != nil {
			t.Fatal(err)
		}
		meta := func(id string) []byte {
			b, err := json.Marshal(testMeta(id))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		const steps = 5000
		var ids []string
		for k := 0; k < 3; k++ {
			id := fmt.Sprintf("l%d", k)
			ids = append(ids, id)
			wal := appendFrame(append([]byte(nil), walMagic...), recMeta, meta(id))
			fp := world.FingerprintSeed
			for i := 0; i < steps; i++ {
				fp = world.FingerprintFold(fp, tagOf(i).AlphaBits, tagOf(i).Obs)
				wal = appendFrame(wal, recStep, appendStep(nil, StepRecord{T: i, Tag: tagOf(i), Fingerprint: fp, RNG: rngOf(id, i)}))
			}
			if len(wal) < window {
				t.Fatalf("%s: legacy WAL of %d bytes fits one scan window", id, len(wal))
			}
			if err := os.WriteFile(filepath.Join(legacy, fmt.Sprintf("%x", id)+".wal"), wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		check(t, loadOnce(t, dir), ids, steps)
		check(t, loadOnce(t, dir), ids, steps)
	})
}

// TestCompactionUnderAppends: compactions run while other goroutines
// create, append to, snapshot and delete sessions, so records land
// during both the unlocked copy and the locked tail copy; every
// resident session still reloads with every record it was acknowledged.
func TestCompactionUnderAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	const writers, cycles = 4, 1500
	type resident struct {
		tags int
		fp   uint64
	}
	final := make([]resident, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rid := fmt.Sprintf("resident-%d", w)
			rgen, err := s.CreateSession(testMeta(rid))
			if err != nil {
				errs <- err
				return
			}
			var tags []core.ReleaseTag
			fp := world.FingerprintSeed
			for c := 0; c < cycles; c++ {
				id := fmt.Sprintf("w%d-c%d", w, c)
				if err := benchLife(s, id, 12); err != nil {
					errs <- err
					return
				}
				if err := s.DeleteSession(id); err != nil {
					errs <- err
					return
				}
				tag := core.ReleaseTag{AlphaBits: uint64(c), Obs: w}
				fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
				if err := s.AppendStep(rid, rgen, StepRecord{T: len(tags), Tag: tag, Fingerprint: fp}); err != nil {
					errs <- err
					return
				}
				tags = append(tags, tag)
				if c%200 == 199 {
					state := SessionState{Meta: testMeta(rid), Snapshot: core.Snapshot{T: len(tags), Tags: tags, Fingerprint: fp}}
					if err := s.WriteSnapshot(state, rgen); err != nil {
						errs <- err
						return
					}
				}
			}
			final[w] = resident{len(tags), fp}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := loadOnce(t, dir)
	if len(got) != writers {
		t.Fatalf("reloaded %d sessions, want the %d residents", len(got), writers)
	}
	for w, want := range final {
		st := got[fmt.Sprintf("resident-%d", w)]
		if len(st.Tags) != want.tags || st.Fingerprint != want.fp {
			t.Fatalf("resident-%d reloaded %d tags fp %#x, want %d fp %#x", w, len(st.Tags), st.Fingerprint, want.tags, want.fp)
		}
	}
}
