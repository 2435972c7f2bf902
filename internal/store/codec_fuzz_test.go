package store

import (
	"bytes"
	"reflect"
	"testing"
)

// Decoder selectors: the first byte of a FuzzDecodeRecords input, modulo
// 2, picks the record kind the rest of the input is decoded as.
const (
	fuzzStep byte = iota
	fuzzSnapshot
)

// FuzzDecodeRecords feeds the journal decoders arbitrary payloads. A
// step payload is framed with appendFrame first, so the fuzzer reaches
// the decoder instead of stopping at the CRC; a snapshot body is decoded
// as it is. No decoder may panic, and whatever decodes
// must re-encode and decode to an equal value. The seed corpus is
// testdata/fuzz/FuzzDecodeRecords.
func FuzzDecodeRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		payload := data[1:]
		switch data[0] % 2 {
		case fuzzStep:
			frame := appendFrame(nil, recStep, payload)
			_, p, _, err := newScanner(bytes.NewReader(frame), 0, int64(len(frame))).next(true)
			if err != nil {
				t.Fatalf("framed step payload does not read back: %v", err)
			}
			rec, err := decodeStep(p)
			if err != nil {
				return
			}
			again, err := decodeStep(appendStep(nil, rec))
			if err != nil || !reflect.DeepEqual(again, rec) {
				t.Fatalf("step %+v re-decoded as %+v (err %v)", rec, again, err)
			}
		case fuzzSnapshot:
			state, err := decodeSnapshot(payload)
			if err != nil {
				return
			}
			enc, err := encodeSnapshot(state)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			again, err := decodeSnapshot(enc)
			if err != nil || !reflect.DeepEqual(again, state) {
				t.Fatalf("snapshot %+v re-decoded as %+v (err %v)", state, again, err)
			}
		}
	})
}
