// Package store is the pluggable durability layer behind pristed
// sessions. It persists the session ledger and nothing else: the
// identity (SessionMeta) and the committed history (core.Snapshot: the
// (alphaBits, obs) tag of every released timestamp, its rolling
// fingerprint and the session RNG state). The same two parts make up an
// api.SessionExport, so a journal and an export are one ledger in two
// framings. Because a session's engine state is a function of its tags,
// durability is a thin, deterministic log rather than matrix
// serialization, and restarts rebuild live sessions by replaying the
// tags through the shared compiled core.Plan.
//
// Two implementations ship: FileStore (one append-only journal per store
// directory, shared by every session, each record tagged with its
// session's generation token, with optional per-append fsync) and Null
// (in-memory no-op for deployments that accept losing sessions on
// restart).
package store

import (
	"errors"

	"priste/internal/core"
)

// Sentinel errors.
var (
	// ErrUnknownSession reports an append for a session the store is not
	// journaling (never created, tombstoned, or lost to corruption).
	ErrUnknownSession = errors.New("store: unknown session")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
	// ErrAlreadyJournaled reports a CreateSession for an id the store is
	// already journaling (a live session, or a surviving journal whose
	// session is not in memory). The caller decides whether that is a
	// conflict or grounds for reclamation (DeleteSession first).
	ErrAlreadyJournaled = errors.New("store: session already journaled")
)

// SessionMeta is the immutable identity of a session — enough for the
// serving layer to recompile the session's plan after a restart or an
// import. It is the identity half of the session ledger (core.Snapshot is
// the history half); api.SessionExport embeds it, so its field order is
// the export's key order.
type SessionMeta struct {
	// World canonically identifies the world model (grid, cell size,
	// mobility) the session's releases were certified against. A restart
	// or import under a different world must refuse to replay the
	// session: its verdicts and history are meaningless there.
	World           string   `json:"world"`
	ID              string   `json:"id"`
	Seed            int64    `json:"seed"`
	Epsilon         float64  `json:"epsilon"`
	Alpha           float64  `json:"alpha"`
	Mechanism       string   `json:"mechanism"`
	Delta           float64  `json:"delta,omitempty"`
	Events          []string `json:"events"`
	CreatedUnixNano int64    `json:"created_unix_nano"`
}

// StepRecord is one journaled step: the committed tag of timestamp T, the
// rolling history fingerprint after committing it (verified on load and
// again after replay), and the post-step session RNG state.
type StepRecord struct {
	T           int
	Tag         core.ReleaseTag
	Fingerprint uint64
	RNG         []byte
}

// SessionState is a complete persisted session: what LoadSessions
// returns for rehydration and what WriteSnapshot records.
// LoadSessions sets T to len(Tags).
type SessionState struct {
	Meta SessionMeta
	core.Snapshot
	// Gen is the journal generation LoadSessions (re-)opened this
	// session under; pass it back to AppendStep/WriteSnapshot.
	Gen uint64
}

// Stats counts store activity for /statsz.
type Stats struct {
	// Enabled is false for the Null store.
	Enabled bool `json:"enabled"`
	// Appends counts step records written; AppendBytes their total size.
	Appends     int64 `json:"appends"`
	AppendBytes int64 `json:"append_bytes"`
	// Fsyncs counts explicit data syncs (0 when running without -fsync);
	// FsyncMicros is their total wall time. Fsync batches appends from
	// every transport, so the timing is reported here rather than in the
	// per-transport stage breakdown.
	Fsyncs      int64   `json:"fsyncs"`
	FsyncMicros float64 `json:"fsync_us"`
	// Snapshots counts snapshot records written (WriteSnapshot, imports,
	// migrated sessions); Tombstones deleted sessions.
	Snapshots  int64 `json:"snapshots"`
	Tombstones int64 `json:"tombstones"`
	// Compactions counts journal rewrites that dropped dead records;
	// JournalBytes is the journal's size and DeadBytes the part of it
	// the next compaction drops (superseded and deleted generations).
	Compactions  int64 `json:"compactions"`
	JournalBytes int64 `json:"journal_bytes"`
	DeadBytes    int64 `json:"dead_bytes"`
	// SessionsLoaded counts sessions recovered by LoadSessions;
	// LoadFailures counts persisted sessions skipped as corrupt.
	SessionsLoaded int64 `json:"sessions_loaded"`
	LoadFailures   int64 `json:"load_failures"`
	// CorruptSuffixes counts sessions whose CRC-valid journal suffix
	// failed the fingerprint chain, had a timestamp gap, or would not
	// decode (the session loaded from the consistent prefix), and
	// journals whose damaged frame had bytes after it (kept in
	// journal.corrupt).
	CorruptSuffixes int64 `json:"corrupt_suffixes"`
}

// Store persists session release histories. Implementations must be safe for concurrent use; appends for
// one session are always issued by a single writer at a time (the
// session's step worker).
type Store interface {
	// CreateSession starts journaling a session and returns the
	// journal's generation token. Any stale state under the same id is
	// discarded. The token scopes appends and snapshots to THIS
	// incarnation of the id: a stale writer holding the token of a
	// deleted session can never corrupt a re-created session's journal.
	CreateSession(meta SessionMeta) (uint64, error)
	// AppendStep journals one committed release of the session. The
	// serving layer calls it write-ahead: before acknowledging the step.
	// gen must match the id's current journal generation
	// (ErrUnknownSession otherwise).
	AppendStep(id string, gen uint64, rec StepRecord) error
	// WriteSnapshot records the session's full state, superseding its
	// earlier records. gen as for AppendStep.
	WriteSnapshot(state SessionState, gen uint64) error
	// ImportSession starts journaling a migrated session that already
	// carries history: the full state is persisted as the session's
	// first record, so a crash at any point either recovers the
	// complete imported history or nothing. Like CreateSession it returns
	// the new journal generation and refuses an id the store already
	// journals (ErrAlreadyJournaled) — migrated history must never
	// silently overwrite existing state.
	ImportSession(state SessionState) (uint64, error)
	// DeleteSession tombstones a session (explicit delete or eviction);
	// a tombstoned session is never returned by LoadSessions.
	DeleteSession(id string) error
	// LoadSessions returns every surviving session for rehydration and
	// re-opens their journals for appending. Call once, before any
	// CreateSession/AppendStep.
	LoadSessions() ([]SessionState, error)
	Stats() Stats
	Close() error
}

// Null is the in-memory no-op store: nothing is persisted and nothing is
// recovered. The zero value is ready to use.
type Null struct{}

// CreateSession implements Store.
func (Null) CreateSession(SessionMeta) (uint64, error) { return 0, nil }

// AppendStep implements Store.
func (Null) AppendStep(string, uint64, StepRecord) error { return nil }

// ImportSession implements Store.
func (Null) ImportSession(SessionState) (uint64, error) { return 0, nil }

// WriteSnapshot implements Store.
func (Null) WriteSnapshot(SessionState, uint64) error { return nil }

// DeleteSession implements Store.
func (Null) DeleteSession(string) error { return nil }

// LoadSessions implements Store.
func (Null) LoadSessions() ([]SessionState, error) { return nil, nil }

// Stats implements Store.
func (Null) Stats() Stats { return Stats{} }

// Close implements Store.
func (Null) Close() error { return nil }
