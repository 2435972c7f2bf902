package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"priste/internal/core"
)

// On-disk framing. The journal starts with an 8-byte magic followed by
// self-checking records
//
//	[type:1][len:uvarint][payload:len][crc32(type‖payload):4]
//
// so a torn tail (crash mid-append) is detected by length or checksum
// and the valid prefix survives. Every journal payload opens with the
// uvarint generation token of the session incarnation it belongs to.
var journalMagic = []byte("PRJNL001")

// Journal record types. A generation's first record is a meta record
// (create) or a snapshot record (import); a later snapshot record
// supersedes every earlier record of its generation.
const (
	recMeta      byte = 1 // gen ‖ JSON SessionMeta
	recStep      byte = 2 // gen ‖ binary StepRecord
	recTombstone byte = 3 // gen: session deleted
	recSnapshot  byte = 4 // gen ‖ snapshot body (encodeSnapshot)
)

// maxRecordLen bounds a single record so a corrupt length prefix cannot
// drive a giant allocation on load. Step records are tens of bytes;
// a snapshot blob is one framed record and grows with session age, so
// the bound is generous (256 MiB ≈ a 16M-step session). Writers enforce the same bound (see checkFrameLen)
// so a file that was written can always be read back.
const maxRecordLen = 1 << 28

// checkFrameLen refuses payloads a load would reject: persisting an
// unloadable record silently destroys the state it claims to save.
func checkFrameLen(what string, n int) error {
	if n > maxRecordLen {
		return fmt.Errorf("store: %s payload %d bytes exceeds the %d-byte record bound", what, n, maxRecordLen)
	}
	return nil
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, frameCRC(buf[start:start+1], payload))
}

// frameCRC is the checksum of a frame: its type byte, then its payload.
func frameCRC(typ, payload []byte) uint32 {
	return crc32.Update(typeCRC[typ[0]], crc32.IEEETable, payload)
}

// typeCRC is the checksum of each one-byte frame type.
var typeCRC = func() (t [256]uint32) {
	for i := range t {
		t[i] = crc32.ChecksumIEEE([]byte{byte(i)})
	}
	return t
}()

// journalFrame frames a journal record of generation gen.
func journalFrame(typ byte, gen uint64, body []byte) []byte {
	payload := make([]byte, 0, binary.MaxVarintLen64+len(body))
	payload = append(binary.AppendUvarint(payload, gen), body...)
	return appendFrame(make([]byte, 0, len(payload)+binary.MaxVarintLen32+5), typ, payload)
}

// splitGen splits a journal payload into its generation and body.
func splitGen(payload []byte) (gen uint64, body []byte, ok bool) {
	gen, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, false
	}
	return gen, payload[n:], true
}

// Frame read outcomes other than io.EOF (a clean end): the data ends
// inside the frame, or the frame is damaged and bytes follow it.
var (
	errTornFrame    = errors.New("store: torn frame")
	errCorruptFrame = errors.New("store: corrupt frame")
)

// scanner streams the frames of a region of src through one buffer,
// which grows only to hold the largest frame.
type scanner struct {
	src io.ReaderAt
	// off is the offset of the next frame and end the region's end;
	// buf[lo:hi] holds src from off on.
	off, end int64
	buf      []byte
	lo, hi   int
}

func newScanner(src io.ReaderAt, off, end int64) *scanner {
	return &scanner{src: src, off: off, end: end, buf: make([]byte, 256<<10)}
}

// fill makes n bytes from off available in buf[lo:hi], or as many as the
// region has left.
func (sc *scanner) fill(n int) error {
	if sc.hi-sc.lo >= n {
		return nil
	}
	sc.hi = copy(sc.buf, sc.buf[sc.lo:sc.hi])
	sc.lo = 0
	if n > len(sc.buf) {
		sc.buf = append(sc.buf[:sc.hi], make([]byte, n-sc.hi)...)
	}
	want := int(min(int64(len(sc.buf)-sc.hi), sc.end-sc.off-int64(sc.hi)))
	if want <= 0 {
		return nil
	}
	m, err := sc.src.ReadAt(sc.buf[sc.hi:sc.hi+want], sc.off+int64(sc.hi))
	sc.hi += m
	if m < want && err != nil && err != io.EOF {
		return err
	}
	return nil
}

// next returns the next frame's type, payload and whole encoding, all
// valid until the following call; check verifies its checksum. It
// returns io.EOF at the region's end, errTornFrame when the region ends
// inside the frame, and errCorruptFrame when the frame is damaged and
// bytes follow it.
func (sc *scanner) next(check bool) (typ byte, payload, frame []byte, err error) {
	if err := sc.fill(1 + binary.MaxVarintLen64); err != nil {
		return 0, nil, nil, err
	}
	if sc.hi == sc.lo {
		return 0, nil, nil, io.EOF
	}
	n, k := binary.Uvarint(sc.buf[sc.lo+1 : sc.hi])
	switch {
	case k == 0:
		return 0, nil, nil, errTornFrame
	case k < 0 || n > maxRecordLen:
		return 0, nil, nil, errCorruptFrame
	}
	size := 1 + k + int(n) + 4
	if err := sc.fill(size); err != nil {
		return 0, nil, nil, err
	}
	if sc.hi-sc.lo < size {
		return 0, nil, nil, errTornFrame
	}
	frame = sc.buf[sc.lo : sc.lo+size]
	payload = frame[1+k : size-4]
	if check && frameCRC(frame[:1], payload) != binary.LittleEndian.Uint32(frame[size-4:]) {
		if sc.off+int64(size) < sc.end {
			return 0, nil, nil, errCorruptFrame
		}
		return 0, nil, nil, errTornFrame
	}
	sc.lo += size
	sc.off += int64(size)
	return frame[0], payload, frame, nil
}

// stepFrame frames the step record rec of generation gen.
func stepFrame(gen uint64, rec StepRecord) []byte {
	payload := appendStep(binary.AppendUvarint(make([]byte, 0, 48+len(rec.RNG)), gen), rec)
	return appendFrame(make([]byte, 0, len(payload)+8), recStep, payload)
}

// appendStep appends the binary StepRecord body to buf.
func appendStep(buf []byte, rec StepRecord) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.T))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Tag.AlphaBits)
	buf = binary.AppendUvarint(buf, uint64(rec.Tag.Obs))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Fingerprint)
	buf = binary.AppendUvarint(buf, uint64(len(rec.RNG)))
	return append(buf, rec.RNG...)
}

// decodeStep decodes a step record body. rec.RNG aliases p: it is valid
// only while p is, so a caller that keeps it copies it (applyStep does).
func decodeStep(p []byte) (StepRecord, error) {
	var rec StepRecord
	t, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, fmt.Errorf("store: step record: bad t")
	}
	p = p[n:]
	if len(p) < 8 {
		return rec, fmt.Errorf("store: step record: short alpha")
	}
	rec.T = int(t)
	rec.Tag.AlphaBits = binary.LittleEndian.Uint64(p)
	p = p[8:]
	obs, n := binary.Uvarint(p)
	if n <= 0 {
		return rec, fmt.Errorf("store: step record: bad obs")
	}
	p = p[n:]
	rec.Tag.Obs = int(obs)
	if len(p) < 8 {
		return rec, fmt.Errorf("store: step record: short fingerprint")
	}
	rec.Fingerprint = binary.LittleEndian.Uint64(p)
	p = p[8:]
	rngLen, n := binary.Uvarint(p)
	if n <= 0 || int(rngLen) != len(p)-n {
		return rec, fmt.Errorf("store: step record: bad rng length")
	}
	if rngLen > 0 {
		rec.RNG = p[n:len(p):len(p)]
	}
	return rec, nil
}

// encodeSnapshot encodes a session's whole state as a snapshot body.
func encodeSnapshot(state SessionState) ([]byte, error) {
	meta, err := json.Marshal(state.Meta)
	if err != nil {
		return nil, fmt.Errorf("store: marshal meta: %w", err)
	}
	buf := make([]byte, 0, len(meta)+16*len(state.Tags)+len(state.RNG)+64)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.AppendUvarint(buf, uint64(len(state.Tags)))
	for _, tag := range state.Tags {
		buf = binary.LittleEndian.AppendUint64(buf, tag.AlphaBits)
		buf = binary.AppendUvarint(buf, uint64(tag.Obs))
	}
	buf = binary.LittleEndian.AppendUint64(buf, state.Fingerprint)
	buf = binary.AppendUvarint(buf, uint64(len(state.RNG)))
	buf = append(buf, state.RNG...)
	if err := checkFrameLen("snapshot", len(buf)+binary.MaxVarintLen64); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeSnapshot decodes a snapshot body: the identity, every committed
// tag, the fingerprint and the RNG state.
func decodeSnapshot(p []byte) (SessionState, error) {
	var state SessionState
	metaLen, n := binary.Uvarint(p)
	// Compare in the uint64 domain: casting a huge corrupt length to int
	// would wrap negative and slip past the bound into a slice panic.
	if n <= 0 || metaLen > uint64(len(p)-n) {
		return state, fmt.Errorf("store: snapshot: bad meta length")
	}
	if err := json.Unmarshal(p[n:n+int(metaLen)], &state.Meta); err != nil {
		return state, fmt.Errorf("store: snapshot meta: %w", err)
	}
	p = p[n+int(metaLen):]
	nTags, n := binary.Uvarint(p)
	// A tag occupies at least 9 bytes (8-byte alpha + 1-byte obs), so a
	// count the payload cannot hold is corruption — reject it before it
	// can drive a giant allocation (CRC32 does not make that impossible).
	if n <= 0 || nTags > uint64(len(p)-n)/9 {
		return state, fmt.Errorf("store: snapshot: bad tag count")
	}
	p = p[n:]
	state.Tags = make([]core.ReleaseTag, 0, nTags)
	for i := uint64(0); i < nTags; i++ {
		if len(p) < 8 {
			return state, fmt.Errorf("store: snapshot: truncated tags")
		}
		alphaBits := binary.LittleEndian.Uint64(p)
		p = p[8:]
		obs, n := binary.Uvarint(p)
		if n <= 0 {
			return state, fmt.Errorf("store: snapshot: bad tag obs")
		}
		p = p[n:]
		state.Tags = append(state.Tags, core.ReleaseTag{AlphaBits: alphaBits, Obs: int(obs)})
	}
	if len(p) < 8 {
		return state, fmt.Errorf("store: snapshot: short fingerprint")
	}
	state.Fingerprint = binary.LittleEndian.Uint64(p)
	p = p[8:]
	rngLen, n := binary.Uvarint(p)
	if n <= 0 || int(rngLen) != len(p)-n {
		return state, fmt.Errorf("store: snapshot: bad rng length")
	}
	if rngLen > 0 {
		state.RNG = append([]byte(nil), p[n:]...)
	}
	return state, nil
}
