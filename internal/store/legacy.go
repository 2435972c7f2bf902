package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"priste/internal/world"
)

// Legacy layout: before the shared journal, each session had its own
// files under <dir>/sessions, named by the hex of its id — an
// append-only WAL (magic, a meta record, then step records and at most
// one tombstone, none carrying a generation) and an optional snapshot
// file holding one framed snapshot body. The first open of a directory
// that still has them migrates every session into the journal
// (migrateLegacy); nothing writes them any more.
var (
	walMagic  = []byte("PRWAL001")
	snapMagic = []byte("PRSNAP01")
)

// legacyDir is the per-session file directory of the legacy layout.
func (s *FileStore) legacyDir() string { return filepath.Join(s.dir, "sessions") }

func (s *FileStore) legacyPath(id, ext string) string {
	return filepath.Join(s.legacyDir(), hex.EncodeToString([]byte(id))+ext)
}

// removeLegacy unlinks a session's legacy files.
func (s *FileStore) removeLegacy(id string) {
	_ = os.Remove(s.legacyPath(id, ".snap"))
	_ = os.Remove(s.legacyPath(id, ".wal"))
}

// migrateLegacy moves every session of the legacy layout into the
// journal as one snapshot record, under the rules the legacy loader
// applied. The journal is synced before any legacy file is removed, so
// a crash mid-migration leaves every session in the files, the journal,
// or both (a repeated migration skips an id the journal already holds).
// A session that fails to load keeps its files, counts a load failure,
// and blocks its id until an explicit DeleteSession removes them.
// Caller holds s.mu during the first open.
func (s *FileStore) migrateLegacy() error {
	entries, err := os.ReadDir(s.legacyDir())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var ids []string
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
		if id := string(raw); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var done []string
	for _, id := range ids {
		if _, ok := s.sessions[id]; ok {
			done = append(done, id)
			continue
		}
		state, status := s.loadLegacy(id)
		switch status {
		case legacyFailed:
			s.loadFailures.Add(1)
			s.log().Warn("store: legacy session load failed; files preserved for post-mortem",
				"session", id, "wal", s.legacyPath(id, ".wal"))
			s.sessions[id] = &journaled{blocked: true, legacy: true}
			continue
		case legacyDead:
			done = append(done, id)
			continue
		case legacyCorrupt:
			s.corruptSuffixes.Add(1)
			s.log().Warn("store: wal suffix corrupt; loaded consistent prefix",
				"session", id, "recovered_steps", len(state.Tags))
		}
		body, err := encodeSnapshot(state)
		if err != nil {
			return err
		}
		gen := s.nextGen.Add(1)
		if _, err := s.beginLocked(id, gen, journalFrame(recSnapshot, gen, body)); err != nil {
			return fmt.Errorf("store: migrate %q: %w", id, err)
		}
		s.snapshots.Add(1)
		state.T, state.Gen = len(state.Tags), gen
		s.pending = append(s.pending, state)
		done = append(done, id)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: migrate: %w", err)
	}
	for _, id := range done {
		s.removeLegacy(id)
	}
	if os.Remove(s.legacyDir()) == nil {
		_ = s.syncDir()
	}
	return nil
}

// Outcomes of loadLegacy.
const (
	legacyOK      = iota
	legacyCorrupt // loaded from the consistent prefix of a corrupt WAL
	legacyDead    // tombstoned
	legacyFailed  // unreadable snapshot or WAL, or no identity
)

// loadLegacy recovers one session from its legacy files, read-only:
// snapshot as the base, then the WAL suffix, verifying the fingerprint
// chain throughout. A torn WAL tail is the expected crash artifact; a
// CRC-valid suffix that fails the chain, leaves a timestamp gap or will
// not decode is corruption, and the session loads from the consistent
// prefix.
func (s *FileStore) loadLegacy(id string) (SessionState, int) {
	var state SessionState
	state.Fingerprint = world.FingerprintSeed
	hasMeta := false
	if snapData, err := os.ReadFile(s.legacyPath(id, ".snap")); err == nil {
		snap, err := decodeSnapshotFile(snapData)
		if err != nil || snap.Meta.ID != id || foldTags(snap) != snap.Fingerprint {
			return state, legacyFailed
		}
		state = snap
		hasMeta = true
	}
	walData, err := os.ReadFile(s.legacyPath(id, ".wal"))
	if err != nil && !os.IsNotExist(err) {
		return state, legacyFailed
	}
	status := legacyOK
	if len(walData) >= len(walMagic) && string(walData[:len(walMagic)]) == string(walMagic) {
		sc := newScanner(bytes.NewReader(walData), int64(len(walMagic)), int64(len(walData)))
	scan:
		for {
			typ, payload, _, err := sc.next(true)
			if err != nil {
				break
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
				if err != nil || !applyStep(&state, rec) {
					status = legacyCorrupt
					break scan
				}
			case recTombstone:
				return state, legacyDead
			}
		}
	}
	if !hasMeta {
		return state, legacyFailed
	}
	return state, status
}

// decodeSnapshotFile decodes a legacy snapshot file: the magic, then one
// frame around a snapshot body.
func decodeSnapshotFile(data []byte) (SessionState, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return SessionState{}, fmt.Errorf("store: bad snapshot magic")
	}
	_, p, _, err := newScanner(bytes.NewReader(data), int64(len(snapMagic)), int64(len(data))).next(true)
	if err != nil {
		return SessionState{}, err
	}
	return decodeSnapshot(p)
}
