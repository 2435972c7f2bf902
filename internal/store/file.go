package store

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/world"
)

// FileStore is the default durable Store: one append-only journal,
// <dir>/journal, shared by every session. Every record carries the
// generation token of the session incarnation it belongs to: a meta
// record when a session is created, a snapshot record when one is
// imported or WriteSnapshot compacts its history, then its step records
// and at most one tombstone. Creating or deleting a session therefore
// costs one append, and LoadSessions reads the journal sequentially,
// decoding only the records of sessions that survive. When the bytes of
// superseded and deleted generations exceed both the live bytes and
// 1 MiB, a compactor goroutine copies the live generations into a fresh
// journal that replaces the old one atomically; Close does the same
// whenever they exceed the live bytes, so a planned restart reads live
// records only.
//
// Each append is one write under the store's append lock. With fsync
// enabled, an append returns only after a data sync that began after
// its write (durable to power loss; concurrent appenders share syncs);
// without it, appends rely on the page cache (durable to process crash
// only).
type FileStore struct {
	dir   string
	fsync bool

	// lock is the held <dir>/LOCK flock guarding against a second
	// process journaling into the same directory; closed on Close.
	lock *os.File

	// syncMu serialises data syncs; synced (guarded by it) is the append
	// count the last completed sync covers. Lock order: syncMu, mu.
	syncMu sync.Mutex
	synced uint64

	// kick wakes the compactor goroutine, stop ends it, and done is
	// closed once it has returned; stopOnce guards stop.
	kick, stop, done chan struct{}
	stopOnce         sync.Once

	// mu is the append lock: it is held for one journal write and the
	// index update that goes with it, and guards every field below.
	mu sync.Mutex
	f  journalFile // nil until the journal is opened
	// size is the journal's length up to its last whole frame; torn
	// reports a failed write whose bytes past size are not yet cut off.
	size int64
	torn bool
	// seq counts appends written, for the sync rule above.
	seq uint64
	// sessions maps each journaled id to its current generation; live is
	// the journal header plus every current generation's bytes, so
	// size-live is what a compaction would drop.
	sessions map[string]*journaled
	live     int64
	// pending holds what the open recovered until LoadSessions takes it.
	pending []SessionState
	closed  bool

	// opened is set once the journal is open and the index built (the
	// first LoadSessions, CreateSession, ImportSession or DeleteSession).
	opened atomic.Bool
	// nextGen is the last generation token minted; the open raises it
	// past every generation in the journal.
	nextGen atomic.Uint64

	appends, appendBytes, fsyncs atomic.Int64
	fsyncNanos                   atomic.Int64
	snapshots, tombstones        atomic.Int64
	sessionsLoaded, loadFailures atomic.Int64
	corruptSuffixes, compactions atomic.Int64

	// syncObs, when set, receives the duration of every append sync
	// (the serving-path fsync; see SetSyncObserver).
	syncObs atomic.Pointer[func(time.Duration)]
	// logger reports load-time anomalies; defaults to discard.
	logger atomic.Pointer[slog.Logger]
}

// journalFile is what the store needs of the journal's descriptor.
type journalFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// journaled is one id's current generation in the journal.
type journaled struct {
	gen uint64
	// base is the offset of the generation's latest meta or snapshot
	// record, and bytes the size of its frames from there on: what a
	// compaction copies.
	base, bytes int64
	// blocked marks a generation that failed to load: it refuses writes
	// and its records are kept for post-mortem until DeleteSession.
	blocked bool
	// legacy marks a blocked session still in the legacy per-session
	// files (see migrateLegacy); it has no journal records.
	legacy bool
}

// compactFloor is the dead-byte count below which the journal is never
// compacted, however small the live set.
const compactFloor = 1 << 20

// SetSyncObserver installs fn to receive the wall time of every append
// fsync — the serving layer feeds it into the wal_fsync latency
// histogram. Pass nil to remove. Safe to call concurrently with appends.
func (s *FileStore) SetSyncObserver(fn func(time.Duration)) {
	if fn == nil {
		s.syncObs.Store(nil)
		return
	}
	s.syncObs.Store(&fn)
}

// SetLogger installs a structured logger for load-time anomalies
// (sessions skipped as corrupt, corrupt suffixes). Nil restores the
// silent default.
func (s *FileStore) SetLogger(l *slog.Logger) { s.logger.Store(l) }

func (s *FileStore) log() *slog.Logger {
	if l := s.logger.Load(); l != nil {
		return l
	}
	return slog.New(slog.DiscardHandler)
}

// Open opens (creating if needed) a file store rooted at dir. With fsync
// true, every append is synced to stable storage before returning. A
// journal.tmp left by a compaction that crashed before its rename is
// discarded; the journal itself is read by the first LoadSessions (or
// the first create, import or delete, if one comes first).
func Open(dir string, fsync bool) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, "journal.tmp")); err != nil && !os.IsNotExist(err) {
		lock.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &FileStore{dir: dir, fsync: fsync, lock: lock, sessions: make(map[string]*journaled),
		kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go s.compactor()
	return s, nil
}

func (s *FileStore) journalPath() string { return filepath.Join(s.dir, "journal") }

// timedSync syncs f and counts it.
func (s *FileStore) timedSync(f journalFile) error {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	d := time.Since(start)
	s.fsyncs.Add(1)
	s.fsyncNanos.Add(int64(d))
	if fn := s.syncObs.Load(); fn != nil {
		(*fn)(d)
	}
	return nil
}

// syncAfter returns once a data sync that began after append seq was
// written has completed: the first waiter syncs, and every append it
// covers returns without another. Syncs of one file do not overlap in
// the kernel, so concurrent ones would only queue there instead. No-op
// without the fsync policy.
func (s *FileStore) syncAfter(seq uint64) error {
	if !s.fsync {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced >= seq {
		return nil
	}
	s.mu.Lock()
	f, target := s.f, s.seq
	s.mu.Unlock()
	if f == nil {
		return ErrClosed
	}
	if err := s.timedSync(f); err != nil {
		return err
	}
	s.synced = target
	return nil
}

// syncDir fsyncs the store directory so a rename survives power loss.
// No-op without the fsync policy (which only promises crash durability).
func (s *FileStore) syncDir() error {
	if !s.fsync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	start := time.Now()
	if err := d.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	s.fsyncNanos.Add(int64(time.Since(start)))
	return nil
}

// writeLocked appends one whole frame at the journal's end. A failed or
// short write is cut off again before any other append can land; if
// that truncation fails too, the next append retries it first and
// fails rather than write behind the torn bytes. Caller holds s.mu.
func (s *FileStore) writeLocked(frame []byte) error {
	if s.f == nil {
		return ErrClosed
	}
	if s.torn {
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: cut torn journal tail: %w", err)
		}
		s.torn = false
	}
	n, err := s.f.WriteAt(frame, s.size)
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.torn = s.f.Truncate(s.size) != nil
		return err
	}
	s.size += int64(n)
	s.seq++
	return nil
}

// ensureOpen opens the journal once: recovery, then migration of a
// legacy directory.
func (s *FileStore) ensureOpen() error {
	if s.opened.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openLocked()
}

func (s *FileStore) openLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.opened.Load() {
		return nil
	}
	f, err := os.OpenFile(s.journalPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	err = s.recoverLocked()
	if err == nil {
		err = s.migrateLegacy()
	}
	if err != nil {
		s.f, s.pending = nil, nil
		clear(s.sessions)
		f.Close()
		return err
	}
	s.opened.Store(true)
	return nil
}

// CreateSession implements Store: one meta record opens the session's
// generation.
func (s *FileStore) CreateSession(meta SessionMeta) (uint64, error) {
	body, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("store: marshal meta: %w", err)
	}
	return s.begin(meta.ID, recMeta, body)
}

// ImportSession implements Store: the migrated history is the new
// generation's first record, a snapshot record, so a crash recovers
// either all of it or (a torn record) nothing.
func (s *FileStore) ImportSession(state SessionState) (uint64, error) {
	body, err := encodeSnapshot(state)
	if err != nil {
		return 0, err
	}
	gen, err := s.begin(state.Meta.ID, recSnapshot, body)
	if err == nil {
		s.snapshots.Add(1)
	}
	return gen, err
}

// begin journals the first record of a new generation of id.
func (s *FileStore) begin(id string, typ byte, body []byte) (uint64, error) {
	if err := s.ensureOpen(); err != nil {
		return 0, err
	}
	gen := s.nextGen.Add(1)
	frame := journalFrame(typ, gen, body)
	s.mu.Lock()
	seq, err := s.beginLocked(id, gen, frame)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := s.syncAfter(seq); err != nil {
		// Unreserve: the caller treats the create as failed.
		s.mu.Lock()
		if j := s.sessions[id]; j != nil && j.gen == gen {
			delete(s.sessions, id)
			s.live -= j.bytes
		}
		s.mu.Unlock()
		return 0, fmt.Errorf("store: %w", err)
	}
	return gen, nil
}

// beginLocked writes frame as generation gen's first record and makes
// it id's current generation. Caller holds s.mu.
func (s *FileStore) beginLocked(id string, gen uint64, frame []byte) (uint64, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if _, ok := s.sessions[id]; ok {
		return 0, fmt.Errorf("%w: %q", ErrAlreadyJournaled, id)
	}
	base := s.size
	if err := s.writeLocked(frame); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.sessions[id] = &journaled{gen: gen, base: base, bytes: int64(len(frame))}
	s.live += int64(len(frame))
	return s.seq, nil
}

// currentLocked returns id's generation if gen is it and takes writes.
// Caller holds s.mu.
func (s *FileStore) currentLocked(id string, gen uint64) (*journaled, error) {
	if s.closed {
		return nil, ErrClosed
	}
	j := s.sessions[id]
	if j == nil || j.gen != gen || j.blocked {
		return nil, ErrUnknownSession
	}
	return j, nil
}

// AppendStep implements Store.
func (s *FileStore) AppendStep(id string, gen uint64, rec StepRecord) error {
	frame := stepFrame(gen, rec)
	s.mu.Lock()
	j, err := s.currentLocked(id, gen)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.writeLocked(frame); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: append: %w", err)
	}
	j.bytes += int64(len(frame))
	s.live += int64(len(frame))
	seq := s.seq
	s.mu.Unlock()
	if err := s.syncAfter(seq); err != nil {
		return fmt.Errorf("store: append sync: %w", err)
	}
	s.appends.Add(1)
	s.appendBytes.Add(int64(len(frame)))
	return nil
}

// WriteSnapshot implements Store: a snapshot record of the full state
// supersedes every earlier record of the generation, which a later
// compaction drops.
func (s *FileStore) WriteSnapshot(state SessionState, gen uint64) error {
	body, err := encodeSnapshot(state)
	if err != nil {
		return err
	}
	frame := journalFrame(recSnapshot, gen, body)
	s.mu.Lock()
	j, err := s.currentLocked(state.Meta.ID, gen)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	base := s.size
	if err := s.writeLocked(frame); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	s.live += int64(len(frame)) - j.bytes
	j.base, j.bytes = base, int64(len(frame))
	seq, due := s.seq, s.compactDueLocked()
	s.mu.Unlock()
	if err := s.syncAfter(seq); err != nil {
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	s.snapshots.Add(1)
	if due {
		s.kickCompaction()
	}
	return nil
}

// DeleteSession implements Store: a tombstone record ends the id's
// generation. An id the store is not journaling reports
// ErrUnknownSession so callers can tell a real tombstone from a no-op.
func (s *FileStore) DeleteSession(id string) error {
	if err := s.ensureOpen(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	j := s.sessions[id]
	if j == nil {
		s.mu.Unlock()
		return ErrUnknownSession
	}
	delete(s.sessions, id)
	s.live -= j.bytes
	if j.legacy {
		s.mu.Unlock()
		s.removeLegacy(id)
		s.tombstones.Add(1)
		return nil
	}
	err := s.writeLocked(journalFrame(recTombstone, j.gen, nil))
	seq, due := s.seq, s.compactDueLocked()
	s.mu.Unlock()
	if err == nil {
		err = s.syncAfter(seq)
	}
	if err != nil {
		return fmt.Errorf("store: tombstone: %w", err)
	}
	s.tombstones.Add(1)
	if due {
		s.kickCompaction()
	}
	return nil
}

// LoadSessions implements Store.
func (s *FileStore) LoadSessions() ([]SessionState, error) {
	s.mu.Lock()
	if err := s.openLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	out := s.pending
	s.pending = nil
	due := s.compactDueLocked()
	s.mu.Unlock()
	s.sessionsLoaded.Add(int64(len(out)))
	if due {
		s.kickCompaction()
	}
	return out, nil
}

// genScan is what the first pass over the journal learns of one
// generation: where its live records start (its latest snapshot record,
// else its first meta record), where its first meta record is, how many
// step records follow its base, and whether a tombstone ended it.
type genScan struct {
	base, meta int64
	steps      int
	dead       bool
}

// loadGen is one generation's recovery state in the second pass.
type loadGen struct {
	id    string
	gen   uint64
	state SessionState
	base  int64
	bytes int64
	// corrupt: a step record broke the chain, left a gap or would not
	// decode, and the generation's later steps are skipped. failed: its
	// snapshot record would not decode or verify, so it is kept blocked.
	// dead: superseded by a later generation of the same id. lost: its
	// identity never decoded.
	corrupt, failed, dead, lost bool
}

// recoverLocked reads the journal in two sequential passes. The first
// checks every frame, cuts a torn tail, and — when a damaged frame has
// bytes after it — appends everything from it on to journal.corrupt and
// cuts the journal there; it also finds each generation's tombstone and
// latest snapshot record. The second decodes only what survives: each
// live generation's records from its latest meta or snapshot record on,
// under the per-session rules (steps must extend the fingerprint chain
// with contiguous T, and a chain break marks a corrupt suffix of that
// session only), so deleted and superseded sessions cost a frame header
// each. Caller holds s.mu.
func (s *FileStore) recoverLocked() error {
	info, err := os.Stat(s.journalPath())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fileSize := info.Size()
	hdr := int64(len(journalMagic))
	head := make([]byte, min(fileSize, hdr))
	if _, err := s.f.ReadAt(head, 0); err != nil || string(head) != string(journalMagic[:len(head)]) {
		return fmt.Errorf("store: %s is not a journal", s.journalPath())
	}
	if fileSize < hdr {
		// Empty, or its header never made it to disk: start fresh.
		if _, err := s.f.WriteAt(journalMagic, 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size, s.live = hdr, hdr
		return nil
	}

	scans := make(map[uint64]*genScan)
	var maxGen uint64
	sc := newScanner(s.f, hdr, fileSize)
	for {
		off := sc.off
		typ, payload, _, err := sc.next(true)
		if err != nil {
			if err == errCorruptFrame {
				s.corruptSuffixes.Add(1)
				s.log().Warn("store: journal corrupt; rest kept as journal.corrupt",
					"offset", off, "bytes", fileSize-off)
				if err := s.keepCorrupt(off, fileSize); err != nil {
					return err
				}
			} else if err != errTornFrame && err != io.EOF {
				return fmt.Errorf("store: read journal: %w", err)
			}
			break
		}
		gen, _, ok := splitGen(payload)
		if !ok {
			continue
		}
		maxGen = max(maxGen, gen)
		g := scans[gen]
		if g == nil {
			g = &genScan{base: -1, meta: -1}
			scans[gen] = g
		}
		switch typ {
		case recMeta:
			if g.meta < 0 {
				g.meta = off
			}
			if g.base < 0 {
				g.base = off
			}
		case recSnapshot:
			g.base, g.steps = off, 0
		case recStep:
			if g.base >= 0 {
				g.steps++
			}
		case recTombstone:
			g.dead = true
		}
	}
	end := sc.off
	if end < fileSize {
		if err := s.f.Truncate(end); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.nextGen.Store(maxGen)
	s.size, s.live = end, hdr

	gens := make(map[uint64]*loadGen)
	byID := make(map[string]*loadGen)
	sc = newScanner(s.f, hdr, end)
	for {
		off := sc.off
		typ, payload, _, err := sc.next(false)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("store: read journal: %w", err)
		}
		gen, body, ok := splitGen(payload)
		g := scans[gen]
		if !ok || g.dead || g.base < 0 || off < g.base {
			continue
		}
		size := sc.off - off
		lg := gens[gen]
		if lg == nil {
			lg = s.startGen(gen, g, typ, body)
			lg.base = off
			gens[gen] = lg
			if lg.lost {
				continue
			}
			if prev := byID[lg.id]; prev != nil {
				prev.dead = true
			}
			byID[lg.id] = lg
		}
		if lg.lost {
			continue
		}
		lg.bytes += size
		if typ != recStep || lg.failed || lg.corrupt || off == lg.base {
			continue
		}
		rec, err := decodeStep(body)
		if err != nil || !applyStep(&lg.state, rec) {
			lg.corrupt = true
		}
	}

	var rebase []*loadGen
	for id, lg := range byID {
		if lg.dead {
			continue
		}
		j := &journaled{gen: lg.gen, base: lg.base, bytes: lg.bytes}
		s.sessions[id] = j
		s.live += lg.bytes
		switch {
		case lg.failed:
			j.blocked = true
			s.loadFailures.Add(1)
			s.log().Warn("store: session load failed; records kept for post-mortem", "session", id)
		case lg.corrupt:
			rebase = append(rebase, lg)
		default:
			lg.state.T = len(lg.state.Tags)
			s.pending = append(s.pending, lg.state)
		}
	}
	for _, lg := range gens {
		if lg.lost {
			s.loadFailures.Add(1)
			s.log().Warn("store: journal generation has no recoverable identity", "gen", lg.gen)
		}
	}
	// A generation recovered from a corrupt suffix continues from its
	// consistent prefix: a snapshot record of that prefix supersedes the
	// damaged records, so appends that follow it load next time.
	for _, lg := range rebase {
		s.corruptSuffixes.Add(1)
		s.log().Warn("store: wal suffix corrupt; loaded consistent prefix",
			"session", lg.id, "recovered_steps", len(lg.state.Tags))
		body, err := encodeSnapshot(lg.state)
		if err != nil {
			return err
		}
		j := s.sessions[lg.id]
		base := s.size
		frame := journalFrame(recSnapshot, j.gen, body)
		if err := s.writeLocked(frame); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.snapshots.Add(1)
		s.live += int64(len(frame)) - j.bytes
		j.base, j.bytes = base, int64(len(frame))
		lg.state.T = len(lg.state.Tags)
		s.pending = append(s.pending, lg.state)
	}
	slices.SortFunc(s.pending, func(a, b SessionState) int { return cmp.Compare(a.Gen, b.Gen) })
	return nil
}

// startGen decodes a live generation's base record: a meta record
// starts an empty history, a snapshot record the history it holds, each
// with room for the step records the first pass counted after it. A
// snapshot that does not decode or verify blocks the generation under
// the id of its first meta record, when it has one.
func (s *FileStore) startGen(gen uint64, g *genScan, typ byte, body []byte) *loadGen {
	lg := &loadGen{gen: gen}
	if typ == recMeta {
		if err := json.Unmarshal(body, &lg.state.Meta); err != nil {
			lg.lost = true
		}
		lg.id = lg.state.Meta.ID
		lg.state.Tags = slices.Grow(lg.state.Tags, g.steps)
		lg.state.Fingerprint = world.FingerprintSeed
		lg.state.Gen = gen
		return lg
	}
	snap, err := decodeSnapshot(body)
	if err == nil && foldTags(snap) == snap.Fingerprint {
		lg.id, lg.state = snap.Meta.ID, snap
		lg.state.Tags = slices.Grow(lg.state.Tags, g.steps)
		lg.state.Gen = gen
		return lg
	}
	lg.failed = true
	if err == nil {
		lg.id = snap.Meta.ID
		return lg
	}
	lg.lost = true
	if g.meta >= 0 {
		_, payload, _, err := newScanner(s.f, g.meta, s.size).next(false)
		if err == nil {
			if _, body, ok := splitGen(payload); ok && json.Unmarshal(body, &lg.state.Meta) == nil {
				lg.id, lg.lost = lg.state.Meta.ID, false
			}
		}
	}
	return lg
}

// keepCorrupt appends the journal bytes [from, to) to journal.corrupt.
func (s *FileStore) keepCorrupt(from, to int64) error {
	out, err := os.OpenFile(filepath.Join(s.dir, "journal.corrupt"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = io.Copy(out, io.NewSectionReader(s.f, from, to-from))
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: keep corrupt journal tail: %w", err)
	}
	return nil
}

// applyStep extends state by rec under the chain rules: a record before
// the state's end is a duplicate already folded in, the next one must
// extend the fingerprint chain, and a later one is a gap. It reports
// false on a chain break or a gap. rec.RNG may alias a scan buffer, so
// it is copied into the state's own.
func applyStep(state *SessionState, rec StepRecord) bool {
	switch {
	case rec.T < len(state.Tags):
		return true
	case rec.T > len(state.Tags):
		return false
	}
	want := world.FingerprintFold(state.Fingerprint, rec.Tag.AlphaBits, rec.Tag.Obs)
	if want != rec.Fingerprint {
		return false
	}
	state.Tags = append(state.Tags, rec.Tag)
	state.Fingerprint = want
	if len(rec.RNG) > 0 {
		state.RNG = append(state.RNG[:0], rec.RNG...)
	}
	return true
}

// foldTags is the fingerprint of state's tags.
func foldTags(state SessionState) uint64 {
	fp := world.FingerprintSeed
	for _, tag := range state.Tags {
		fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
	}
	return fp
}

// compactDueLocked is the serving-time compaction rule: dead bytes
// exceed both the live bytes and compactFloor. Caller holds s.mu.
func (s *FileStore) compactDueLocked() bool {
	return s.size-s.live > max(s.live, compactFloor)
}

// kickCompaction asks the compactor for a compaction without waiting.
func (s *FileStore) kickCompaction() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// compactor runs the compactions appends ask for, one at a time and off
// their callers' paths: a compaction syncs a copy of the live records,
// which a delete or a snapshot must not wait for. A failure is logged;
// the old journal stays in place, whole, and the next trigger retries.
func (s *FileStore) compactor() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			if err := s.compact(s.compactDueLocked); err != nil {
				s.log().Warn("store: journal compaction failed", "err", err)
			}
		}
	}
}

// compact copies each live generation's frames, byte for byte from its
// latest meta or snapshot record on, into journal.tmp, syncs it and
// renames it over the journal. The bulk is copied without the append
// lock, up to the journal's end when the compaction began; the lock is
// then held to copy whatever was appended meanwhile, verbatim, and to
// swap the files (with fsync, after syncing that tail). A crash before
// the rename leaves the old journal and a journal.tmp that Open
// discards; after it, the new journal is complete. due, called under
// s.mu, decides whether to go ahead. Only the compactor and, once it has
// stopped, Close call it.
func (s *FileStore) compact(due func() bool) error {
	s.mu.Lock()
	if s.closed || s.f == nil || !due() {
		s.mu.Unlock()
		return nil
	}
	src, end := s.f, s.size
	bases := make(map[uint64]int64, len(s.sessions))
	for _, j := range s.sessions {
		if !j.legacy {
			bases[j.gen] = j.base
		}
	}
	s.mu.Unlock()

	tmpPath := filepath.Join(s.dir, "journal.tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(journalMagic)
	moved, tailStart, err := copyLive(w, src, end, bases)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		return fail(err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fail(ErrClosed)
	}
	tail := s.size - end
	_, err = io.Copy(w, io.NewSectionReader(s.f, end, tail))
	if err == nil {
		err = w.Flush()
	}
	if err == nil && s.fsync {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, s.journalPath())
	}
	if err != nil {
		s.mu.Unlock()
		return fail(err)
	}
	old := s.f
	s.f = tmp
	s.size, s.torn = tailStart+tail, false
	for _, j := range s.sessions {
		switch {
		case j.legacy:
		case j.base >= end:
			j.base += tailStart - end
		default:
			j.base = moved[j.gen]
		}
	}
	s.mu.Unlock()
	s.compactions.Add(1)
	s.syncMu.Lock()
	old.Close()
	s.syncMu.Unlock()
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// copyLive streams the frames of src's [header, end) to w, keeping only
// those of a generation in bases at or after its base offset. It reads
// each frame's framing and generation and decodes nothing, and returns
// each copied generation's new base offset and the bytes written.
func copyLive(w io.Writer, src io.ReaderAt, end int64, bases map[uint64]int64) (map[uint64]int64, int64, error) {
	moved := make(map[uint64]int64, len(bases))
	out := int64(len(journalMagic))
	sc := newScanner(src, out, end)
	for {
		off := sc.off
		_, payload, frame, err := sc.next(false)
		if err == io.EOF {
			return moved, out, nil
		}
		if err != nil {
			return nil, 0, err
		}
		gen, _, ok := splitGen(payload)
		base, live := bases[gen]
		if !ok || !live || off < base {
			continue
		}
		if off == base {
			moved[gen] = out
		}
		if _, err := w.Write(frame); err != nil {
			return nil, 0, err
		}
		out += int64(len(frame))
	}
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	journal, dead := s.size, s.size-s.live
	s.mu.Unlock()
	return Stats{
		Enabled:         true,
		Appends:         s.appends.Load(),
		AppendBytes:     s.appendBytes.Load(),
		Fsyncs:          s.fsyncs.Load(),
		FsyncMicros:     float64(s.fsyncNanos.Load()) / 1e3,
		Snapshots:       s.snapshots.Load(),
		Tombstones:      s.tombstones.Load(),
		SessionsLoaded:  s.sessionsLoaded.Load(),
		LoadFailures:    s.loadFailures.Load(),
		CorruptSuffixes: s.corruptSuffixes.Load(),
		Compactions:     s.compactions.Load(),
		JournalBytes:    journal,
		DeadBytes:       dead,
	}
}

// Close implements Store. It stops the compactor, waiting for a running
// compaction, then compacts once more if dead bytes outweigh live ones,
// whatever their size: a restart reads the whole journal, and a planned
// one should not read the records of sessions that are gone.
func (s *FileStore) Close() error {
	s.stopOnce.Do(func() {
		close(s.stop)
		<-s.done
		if err := s.compact(func() bool { return s.size-s.live > s.live }); err != nil {
			s.log().Warn("store: journal compaction failed", "err", err)
		}
	})
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.f != nil {
		err = s.f.Close()
		s.f = nil
	}
	s.sessions, s.pending = nil, nil
	if s.lock != nil {
		s.lock.Close()
	}
	return err
}
