package rpc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes one call of fn allocates (every allocation
// counts, freed or not): the least of three calls, so that a goroutine
// left over from another test allocating at the same moment does not
// count against fn.
func allocatedBy(fn func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// frameAllocBound is what readFrame may allocate for a frame of which got
// bytes arrived: the first chunk on the prefix alone, then at-most-doubling
// growth (a geometric series, plus the allocator's size-class rounding).
func frameAllocBound(got int) uint64 { return uint64(frameChunk + 6*got + 4096) }

// TestReadFrameAllocatesWhatArrives: a peer that announces a large frame
// and sends little of it costs the reader memory proportional to what it
// sent, not to what it announced; small frames stay at one message
// allocation; a large frame that does arrive is returned intact.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	for _, sent := range []int{0, 10, frameChunk, 3*frameChunk + 1} {
		var prefix [4]byte
		binary.BigEndian.PutUint32(prefix[:], maxFrame)
		in := append(prefix[:], make([]byte, sent)...)
		var err error
		got := allocatedBy(func() { _, _, _, _, err = readFrame(bytes.NewReader(in)) })
		if err == nil {
			t.Fatalf("%d of %d announced bytes: truncated frame accepted", sent, maxFrame)
		}
		if got > frameAllocBound(sent) {
			t.Errorf("%d of %d announced bytes: readFrame allocated %d, bound %d", sent, maxFrame, got, frameAllocBound(sent))
		}
	}

	small := appendFrame(nil, opStep, 7, 9, []byte("0123456789"))
	rd := bytes.NewReader(small)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(small)
		if _, _, _, _, err := readFrame(rd); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		// The 4-byte prefix (it escapes through io.Reader) and the message,
		// exactly what the unchunked reader cost.
		t.Errorf("small frame: %v allocations per read, want 2 (prefix + one message buffer)", n)
	}

	body := make([]byte, 5*frameChunk+123)
	for i := range body {
		body[i] = byte(i * 31)
	}
	op, reqID, trace, back, err := readFrame(bytes.NewReader(appendFrame(nil, opCall, 1, 2, body)))
	if err != nil || op != opCall || reqID != 1 || trace != 2 || !bytes.Equal(back, body) {
		t.Fatalf("large frame round trip: op=%d id=%d trace=%d len=%d err=%v", op, reqID, trace, len(back), err)
	}
}

// FuzzReadFrame feeds readFrame arbitrary byte streams. It must never
// panic; a stream that decodes must re-encode (appendFrame) to exactly the
// bytes consumed; a stream that does not must fail with an error; and when
// the prefix announces more than the stream holds, the reader's allocation
// stays bounded by what the stream did hold. The seed corpus is
// testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var (
			op           byte
			reqID, trace uint64
			body         []byte
			err          error
		)
		read := func() {
			rd.Reset(data)
			op, reqID, trace, body, err = readFrame(rd)
		}
		announced := 0
		if len(data) >= 4 {
			announced = int(binary.BigEndian.Uint32(data))
		}
		if announced > len(data) {
			// MemStats stops the world, so only the inputs that could
			// over-allocate pay for it.
			if got := allocatedBy(read); got > frameAllocBound(len(data)) {
				t.Fatalf("announced %d, stream holds %d: readFrame allocated %d, bound %d", announced, len(data), got, frameAllocBound(len(data)))
			}
		} else {
			read()
		}
		consumed := len(data) - rd.Len()
		if err != nil {
			if body != nil {
				t.Fatalf("error %v with a body", err)
			}
			if announced >= frameHeader && announced <= maxFrame && 4+announced <= len(data) {
				t.Fatalf("well-formed frame of %d bytes rejected: %v", announced, err)
			}
			return
		}
		if consumed != 4+frameHeader+len(body) {
			t.Fatalf("consumed %d bytes for a %d-byte body", consumed, len(body))
		}
		if again := appendFrame(nil, op, reqID, trace, body); !bytes.Equal(again, data[:consumed]) {
			t.Fatalf("re-encoded frame differs from the bytes read")
		}
	})
}
