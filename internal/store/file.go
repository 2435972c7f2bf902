package store

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/world"
)

// FileStore is the default durable Store: one append-only WAL plus one
// snapshot file per session under dir/sessions (filenames are the hex of
// the session id, so arbitrary ids are safe). WriteSnapshot compacts a session's WAL
// to empty after atomically replacing its snapshot, so recovery reads
// snapshot + WAL suffix. With fsync enabled every append is synced
// before the step is acknowledged (durable to power loss); without it,
// appends rely on the page cache (durable to process crash only).
type FileStore struct {
	dir   string
	fsync bool

	// lock is the held <dir>/LOCK flock guarding against a second
	// process journaling into the same directory; closed on Close.
	lock *os.File

	mu      sync.Mutex
	handles map[string]*walHandle
	closed  bool

	appends, appendBytes, fsyncs atomic.Int64
	fsyncNanos                   atomic.Int64
	snapshots, tombstones        atomic.Int64
	sessionsLoaded, loadFailures atomic.Int64
	corruptSuffixes              atomic.Int64

	// gens mints journal generation tokens (see Store.CreateSession).
	gens atomic.Uint64

	// syncObs, when set, receives the duration of every WAL append sync
	// (the serving-path fsync; see SetSyncObserver).
	syncObs atomic.Pointer[func(time.Duration)]
	// logger reports load-time anomalies; defaults to discard.
	logger atomic.Pointer[slog.Logger]
}

// SetSyncObserver installs fn to receive the wall time of every WAL
// append fsync — the serving layer feeds it into the wal_fsync latency
// histogram. Pass nil to remove. Safe to call concurrently with appends.
func (s *FileStore) SetSyncObserver(fn func(time.Duration)) {
	if fn == nil {
		s.syncObs.Store(nil)
		return
	}
	s.syncObs.Store(&fn)
}

// SetLogger installs a structured logger for load-time anomalies
// (sessions skipped as corrupt, truncated WAL suffixes). Nil restores
// the silent default.
func (s *FileStore) SetLogger(l *slog.Logger) { s.logger.Store(l) }

func (s *FileStore) log() *slog.Logger {
	if l := s.logger.Load(); l != nil {
		return l
	}
	return slog.New(slog.DiscardHandler)
}

// walHandle serialises writes to one session's WAL. gen is the
// incarnation token handed out when the journal was opened; appends and
// snapshots carrying a different token are refused. The descriptor is
// lazy: LoadSessions registers handles without opening files, so a
// store directory with far more journaled sessions than the fd limit
// (or than MaxSessions) costs nothing until a session actually appends.
type walHandle struct {
	mu   sync.Mutex
	f    *os.File // nil when not yet opened (lazy) or already closed
	dead bool     // tombstoned / store closed: refuse writes
	path string
	meta SessionMeta
	gen  uint64
}

// file returns the WAL descriptor, opening it for appending on first
// use. Caller holds h.mu.
func (h *walHandle) file() (*os.File, error) {
	if h.dead {
		return nil, ErrUnknownSession
	}
	if h.f != nil {
		return h.f, nil
	}
	f, err := os.OpenFile(h.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: reopen wal: %w", err)
	}
	h.f = f
	return f, nil
}

// closeLocked closes the descriptor and marks the handle dead when asked.
// Caller holds h.mu.
func (h *walHandle) closeLocked(dead bool) {
	if h.f != nil {
		h.f.Close()
		h.f = nil
	}
	if dead {
		h.dead = true
	}
}

// Open opens (creating if needed) a file store rooted at dir. With fsync
// true, every WAL append and file replacement is synced to stable
// storage before returning.
func Open(dir string, fsync bool) (*FileStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, fsync: fsync, lock: lock, handles: make(map[string]*walHandle)}, nil
}

func (s *FileStore) walPath(id string) string {
	return filepath.Join(s.dir, "sessions", hex.EncodeToString([]byte(id))+".wal")
}

func (s *FileStore) snapPath(id string) string {
	return filepath.Join(s.dir, "sessions", hex.EncodeToString([]byte(id))+".snap")
}

func (s *FileStore) maybeSync(f *os.File) error {
	if !s.fsync {
		return nil
	}
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

// syncDir fsyncs the directory containing path so file creations,
// renames and unlinks survive power loss — file data syncs alone do not
// persist the directory entry. No-op without the fsync policy (which
// only promises crash durability).
func (s *FileStore) syncDir(path string) error {
	if !s.fsync {
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
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

// newWAL writes a fresh WAL (magic + meta record) to path.
func (s *FileStore) newWAL(path string, meta SessionMeta) (*os.File, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: marshal meta: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf := append([]byte(nil), walMagic...)
	buf = appendFrame(buf, recMeta, metaJSON)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.maybeSync(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

// CreateSession implements Store.
func (s *FileStore) CreateSession(meta SessionMeta) (uint64, error) {
	return s.openJournal(meta, nil)
}

// ImportSession implements Store: the migrated history is persisted as
// the session's snapshot before its fresh WAL opens, so a crash at any
// point either recovers the complete imported state (snapshot with or
// without the WAL — load creates a missing WAL) or, before the snapshot
// rename lands, nothing at all.
func (s *FileStore) ImportSession(state SessionState) (uint64, error) {
	data, err := encodeSnapshot(state)
	if err != nil {
		return 0, err
	}
	return s.openJournal(state.Meta, data)
}

// openJournal reserves the id and opens its journal: an optional
// pre-encoded snapshot (imports), then a fresh WAL. The handle is
// reserved under s.mu but all file I/O (including fsyncs) runs under
// its own lock only: every step append's handle lookup takes s.mu, so
// create-time disk work must not sit on the store-wide mutex.
func (s *FileStore) openJournal(meta SessionMeta, snapshot []byte) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if _, ok := s.handles[meta.ID]; ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrAlreadyJournaled, meta.ID)
	}
	gen := s.gens.Add(1)
	h := &walHandle{path: s.walPath(meta.ID), meta: meta, gen: gen}
	h.mu.Lock()
	defer h.mu.Unlock()
	s.handles[meta.ID] = h
	s.mu.Unlock()

	unreserve := func(err error) (uint64, error) {
		s.mu.Lock()
		if s.handles[meta.ID] == h {
			delete(s.handles, meta.ID)
		}
		s.mu.Unlock()
		return 0, err
	}
	if snapshot == nil {
		// A re-created id (deleted or lost in a previous life) starts
		// fresh.
		_ = os.Remove(s.snapPath(meta.ID))
	} else {
		// Imported history becomes the snapshot first: a WAL existing
		// without it would recover an empty session under this id. The
		// stale WAL (if any) must go before the snapshot so a crash
		// in between cannot pair the new history with old records.
		_ = os.Remove(s.walPath(meta.ID))
		if err := s.replaceFile(s.snapPath(meta.ID), snapshot); err != nil {
			return unreserve(fmt.Errorf("store: import snapshot: %w", err))
		}
		s.snapshots.Add(1)
	}
	f, err := s.newWAL(h.path, meta)
	if err == nil {
		if serr := s.syncDir(h.path); serr != nil {
			f.Close()
			f, err = nil, fmt.Errorf("store: %w", serr)
		}
	}
	if err != nil {
		return unreserve(err)
	}
	h.f = f
	return gen, nil
}

func (s *FileStore) handle(id string, gen uint64) (*walHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	h, ok := s.handles[id]
	if !ok || h.gen != gen {
		return nil, ErrUnknownSession
	}
	return h, nil
}

// AppendStep implements Store.
func (s *FileStore) AppendStep(id string, gen uint64, rec StepRecord) error {
	h, err := s.handle(id, gen)
	if err != nil {
		return err
	}
	frame := appendFrame(nil, recStep, encodeStep(rec))
	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.maybeSync(f); err != nil {
		return fmt.Errorf("store: append sync: %w", err)
	}
	s.appends.Add(1)
	s.appendBytes.Add(int64(len(frame)))
	return nil
}

// replaceFile atomically writes data at path via tmp + rename.
func (s *FileStore) replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	// A snapshot that survives a rename but not its own write is a
	// corrupt primary, so sync the data regardless of the fsync policy.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return s.syncDir(path)
}

// WriteSnapshot implements Store.
func (s *FileStore) WriteSnapshot(state SessionState, gen uint64) error {
	h, err := s.handle(state.Meta.ID, gen)
	if err != nil {
		return err
	}
	data, err := encodeSnapshot(state)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead {
		return ErrUnknownSession
	}
	if err := s.replaceFile(s.snapPath(state.Meta.ID), data); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	// Compact: the snapshot now carries the whole history, so the WAL
	// restarts empty. A crash between the two renames leaves pre-snapshot
	// records in the WAL; replay skips them by timestamp.
	tmpPath := s.walPath(state.Meta.ID) + ".rotate"
	nf, err := s.newWAL(tmpPath, h.meta)
	if err != nil {
		return err
	}
	if err := os.Rename(tmpPath, s.walPath(state.Meta.ID)); err != nil {
		nf.Close()
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	// The renamed file is the live WAL from here on: swap the handle
	// before reporting any directory-sync failure, so appends never land
	// on the unlinked old inode.
	h.closeLocked(false)
	h.f = nf
	s.snapshots.Add(1)
	if err := s.syncDir(s.walPath(state.Meta.ID)); err != nil {
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	return nil
}

// DeleteSession implements Store. An id the store is not journaling and
// has no files for reports ErrUnknownSession so callers can distinguish
// a real tombstone from a no-op.
func (s *FileStore) DeleteSession(id string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	h := s.handles[id]
	delete(s.handles, id)
	s.mu.Unlock()
	if h != nil {
		h.mu.Lock()
		// Durable tombstone first: if the unlinks never happen (crash),
		// the record still kills the session on load.
		if f, err := h.file(); err == nil {
			if _, err := f.Write(appendFrame(nil, recTombstone, nil)); err == nil {
				_ = s.maybeSync(f)
			}
		}
		h.closeLocked(true)
		h.mu.Unlock()
	}
	snapErr := os.Remove(s.snapPath(id))
	walErr := os.Remove(s.walPath(id))
	if h == nil && snapErr != nil && walErr != nil {
		return ErrUnknownSession
	}
	s.tombstones.Add(1)
	// Best-effort: the tombstone record already kills the session on
	// load even if the unlinks' directory entry update is lost, so a
	// failed dir sync must not make a completed delete report failure.
	_ = s.syncDir(s.walPath(id))
	return nil
}

// LoadSessions implements Store.
func (s *FileStore) LoadSessions() ([]SessionState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "sessions"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		ext := filepath.Ext(name)
		if ext != ".wal" && ext != ".snap" {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ext))
		if err != nil {
			continue
		}
		ids[string(raw)] = true
	}
	var out []SessionState
	for id := range ids {
		state, ok := s.loadSession(id)
		if !ok {
			continue
		}
		out = append(out, state)
		s.sessionsLoaded.Add(1)
	}
	return out, nil
}

// loadSession recovers one session: snapshot as the base, then the WAL
// suffix, verifying the fingerprint chain throughout. It registers an
// append handle (minting state.Gen) on success. A session with an
// unreadable snapshot counts a load failure and its files are left for
// post-mortem; a CRC-valid WAL suffix that fails the fingerprint chain,
// leaves a timestamp gap, or will not decode is real corruption — the
// session loads from the consistent prefix, the damaged original is
// preserved as a .corrupt sidecar, and CorruptSuffixes counts it.
func (s *FileStore) loadSession(id string) (SessionState, bool) {
	var state SessionState
	state.Fingerprint = world.FingerprintSeed
	hasMeta := false
	fail := func() (SessionState, bool) {
		s.loadFailures.Add(1)
		s.log().Warn("store: session load failed; files preserved for post-mortem",
			"session", id, "wal", s.walPath(id))
		// Register a write-refusing placeholder so the id's surviving
		// files — the post-mortem evidence — cannot be silently wiped by
		// a later CreateSession (it reports ErrAlreadyJournaled; an
		// explicit DeleteSession reclaims the id).
		s.handles[id] = &walHandle{path: s.walPath(id), dead: true, meta: SessionMeta{ID: id}, gen: s.gens.Add(1)}
		return SessionState{}, false
	}

	if snapData, err := os.ReadFile(s.snapPath(id)); err == nil {
		snap, err := decodeSnapshot(snapData)
		if err != nil || snap.Meta.ID != id {
			return fail()
		}
		fp := world.FingerprintSeed
		for _, tag := range snap.Tags {
			fp = world.FingerprintFold(fp, tag.AlphaBits, tag.Obs)
		}
		if fp != snap.Fingerprint {
			return fail()
		}
		state = snap
		hasMeta = true
	}

	walData, err := os.ReadFile(s.walPath(id))
	if err != nil && !os.IsNotExist(err) {
		return fail()
	}
	validLen := 0
	corrupt := false
	if len(walData) >= len(walMagic) && string(walData[:len(walMagic)]) == string(walMagic) {
		off := len(walMagic)
	scan:
		for {
			typ, payload, next, err := readFrame(walData, off)
			if err != nil {
				break // torn tail: the expected crash artifact, not corruption
			}
			switch typ {
			case recMeta:
				var meta SessionMeta
				if err := json.Unmarshal(payload, &meta); err == nil && meta.ID == id && !hasMeta {
					state.Meta = meta
					hasMeta = true
				}
			case recStep:
				rec, err := decodeStep(payload)
				if err != nil {
					corrupt = true
					break scan
				}
				switch {
				case rec.T < len(state.Tags):
					// Pre-snapshot duplicate (crash between snapshot rename
					// and WAL rotation): already folded into the base.
				case rec.T == len(state.Tags):
					want := world.FingerprintFold(state.Fingerprint, rec.Tag.AlphaBits, rec.Tag.Obs)
					if want != rec.Fingerprint {
						corrupt = true
						break scan
					}
					state.Tags = append(state.Tags, rec.Tag)
					state.Fingerprint = want
					if len(rec.RNG) > 0 {
						state.RNG = rec.RNG
					}
				default:
					// Gap: records lost; the contiguous prefix stands.
					corrupt = true
					break scan
				}
			case recTombstone:
				_ = os.Remove(s.snapPath(id))
				_ = os.Remove(s.walPath(id))
				return SessionState{}, false
			}
			off = next
			validLen = off
		}
	}
	gen, ok := s.finishLoad(id, state, hasMeta, validLen, corrupt)
	if !ok {
		return SessionState{}, false
	}
	state.T = len(state.Tags)
	state.Gen = gen
	return state, true
}

// finishLoad truncates the WAL past its valid prefix — preserving the
// original as a .corrupt sidecar when the suffix was real corruption
// rather than a torn tail — and re-opens it for appending under a fresh
// generation. A session with no recoverable meta is a load failure.
func (s *FileStore) finishLoad(id string, state SessionState, hasMeta bool, validLen int, corrupt bool) (uint64, bool) {
	if !hasMeta {
		s.loadFailures.Add(1)
		s.log().Warn("store: session journal has no recoverable meta record", "session", id)
		return 0, false
	}
	path := s.walPath(id)
	if corrupt {
		s.corruptSuffixes.Add(1)
		s.log().Warn("store: wal suffix corrupt; loaded consistent prefix",
			"session", id, "recovered_steps", len(state.Tags), "sidecar", path+".corrupt")
		if orig, err := os.ReadFile(path); err == nil {
			_ = os.WriteFile(path+".corrupt", orig, 0o644)
		}
	}
	// Handles are registered without a descriptor (lazy): a store may
	// hold orders of magnitude more journaled sessions than the process
	// fd limit, and only sessions that actually step need a file.
	register := func() (uint64, bool) {
		gen := s.gens.Add(1)
		s.handles[id] = &walHandle{path: path, meta: state.Meta, gen: gen}
		return gen, true
	}
	failLoad := func() (uint64, bool) {
		s.loadFailures.Add(1)
		s.handles[id] = &walHandle{path: path, dead: true, meta: state.Meta, gen: s.gens.Add(1)}
		return 0, false
	}
	if validLen < len(walMagic) {
		// Header never made it to disk (or no WAL at all): start fresh.
		f, err := s.newWAL(path, state.Meta)
		if err != nil {
			return failLoad()
		}
		f.Close()
		return register()
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return failLoad()
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return failLoad()
	}
	f.Close()
	return register()
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
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
	}
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, h := range s.handles {
		h.mu.Lock()
		h.closeLocked(true)
		h.mu.Unlock()
	}
	s.handles = nil
	if s.lock != nil {
		s.lock.Close()
	}
	return nil
}
