package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"priste/internal/core"
)

// On-disk framing. Every file starts with an 8-byte magic; WAL bodies
// are a sequence of self-checking records
//
//	[type:1][len:uvarint][payload:len][crc32(type‖payload):4]
//
// so a torn tail (crash mid-append) is detected by length or checksum
// and the valid prefix survives. Snapshot files hold a single framed
// blob and are only ever replaced atomically (tmp + rename).
var (
	walMagic  = []byte("PRWAL001")
	snapMagic = []byte("PRSNAP01")
)

// WAL record types.
const (
	recMeta      byte = 1 // JSON SessionMeta
	recStep      byte = 2 // binary StepRecord
	recTombstone byte = 3 // empty payload: session deleted
)

// maxRecordLen bounds a single record so a corrupt length prefix cannot
// drive a giant allocation on load. Step records are tens of bytes;
// a snapshot blob is one framed record and grows with session age, so
// the bound is generous (256 MiB ≈ a 16M-step session). Writers enforce the same bound (see checkFrameLen)
// so a file that was written can always be read back.
const maxRecordLen = 1 << 28

// checkFrameLen refuses payloads readFrame would reject: persisting an
// unloadable record silently destroys the state it claims to save.
func checkFrameLen(what string, n int) error {
	if n > maxRecordLen {
		return fmt.Errorf("store: %s payload %d bytes exceeds the %d-byte record bound", what, n, maxRecordLen)
	}
	return nil
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(payload)
	return binary.LittleEndian.AppendUint32(buf, crc.Sum32())
}

// readFrame parses the record at data[off:]. Any truncation or checksum
// mismatch returns an error; the caller treats it as the end of the
// valid prefix.
func readFrame(data []byte, off int) (typ byte, payload []byte, next int, err error) {
	if off >= len(data) {
		return 0, nil, 0, fmt.Errorf("store: end of log")
	}
	typ = data[off]
	n, k := binary.Uvarint(data[off+1:])
	if k <= 0 || n > maxRecordLen {
		return 0, nil, 0, fmt.Errorf("store: bad record length")
	}
	body := off + 1 + k
	end := body + int(n) + 4
	if end > len(data) {
		return 0, nil, 0, fmt.Errorf("store: truncated record")
	}
	payload = data[body : body+int(n)]
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(data[body+int(n):]) {
		return 0, nil, 0, fmt.Errorf("store: record checksum mismatch")
	}
	return typ, payload, end, nil
}

func encodeStep(rec StepRecord) []byte {
	buf := make([]byte, 0, 40+len(rec.RNG))
	buf = binary.AppendUvarint(buf, uint64(rec.T))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Tag.AlphaBits)
	buf = binary.AppendUvarint(buf, uint64(rec.Tag.Obs))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Fingerprint)
	buf = binary.AppendUvarint(buf, uint64(len(rec.RNG)))
	return append(buf, rec.RNG...)
}

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
		rec.RNG = append([]byte(nil), p[n:]...)
	}
	return rec, nil
}

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
	if err := checkFrameLen("snapshot", len(buf)); err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(snapMagic)+len(buf)+16)
	out = append(out, snapMagic...)
	return appendFrame(out, recMeta, buf), nil
}

func decodeSnapshot(data []byte) (SessionState, error) {
	var state SessionState
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return state, fmt.Errorf("store: bad snapshot magic")
	}
	_, p, _, err := readFrame(data, len(snapMagic))
	if err != nil {
		return state, err
	}
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
