package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"smartexp3/internal/chaos"
	"smartexp3/internal/frame/frametest"
)

// encodeRaw frames each payload exactly as a connection would.
func encodeRaw(tb testing.TB, payloads ...[]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	for _, p := range payloads {
		if err := fw.WriteFrame(p); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzSeedFrames returns the checked-in seed corpus for FuzzFrameDecode:
// well-formed streams (a hello, raw payloads, a multi-frame run) and the
// classic framing corruptions — a damaged header, zero and oversized
// lengths, a short body, a bad payload checksum, truncation.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	helloFrame := encodeRaw(tb, Hello{Proto: "cluster", Version: 4}.Payload())
	seeds := [][]byte{
		helloFrame,
		encodeRaw(tb, []byte{1}),
		encodeRaw(tb, []byte("select"), []byte("feedback"), bytes.Repeat([]byte{7}, 300)),
		make([]byte, headerSize),                                  // zero header: its own checksum fails
		frametest.Header(0xffffffff, 0),                           // length far beyond the cap
		append(frametest.Header(5, 0), 1, 2),                      // body shorter than its length
		append(frametest.Header(4, 0), 0xde, 0xad, 0xbe, 0xef),    // payload checksum mismatch
		append(frametest.Header(4, 0)[:headerSize-1], 0, 1, 2, 3), // header checksum mismatch
		helloFrame[:len(helloFrame)-3],                            // truncated body
		append(append([]byte(nil), helloFrame...), 0xff),          // a stray byte after a frame
	}
	lengthFlip := append([]byte(nil), helloFrame...)
	lengthFlip[3] ^= 0x10 // a length that still fits the cap: the header check must catch it
	return append(seeds, lengthFlip)
}

// FuzzFrameDecode throws arbitrary byte streams at the frame reader. The
// invariant under test is that a hostile or corrupt peer can produce only
// an error: no panic, no unbounded allocation (the header is checked and
// the length bounded before any buffer is sized), every payload delivered
// matches its checksum, and once a stream errors it keeps erroring rather
// than resynchronizing on garbage.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewReader(bytes.NewReader(data))
		var firstErr error
		for i := 0; i < 64; i++ {
			p, err := fr.ReadFrame()
			if err != nil {
				if firstErr != nil {
					if err != firstErr {
						t.Fatalf("latched error changed from %v to %v", firstErr, err)
					}
					return
				}
				firstErr = err
				continue // one more read to confirm the stream stays dead
			}
			if firstErr != nil {
				t.Fatal("frame reader resynchronized after an error")
			}
			if len(p) == 0 || len(p) > maxFrameBytes {
				t.Fatalf("delivered a %d-byte payload", len(p))
			}
		}
	})
}

// FuzzFrameRoundTrip checks the codec against itself: any two payloads
// we can frame, interleaved on one stream, read back byte for byte and in
// order, each frame's boundary intact.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("select"), []byte("peer"))
	f.Add([]byte{0}, []byte{0xff, 0, 0xff, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) == 0 {
			a = []byte{0}
		}
		if len(b) == 0 {
			b = []byte{0}
		}
		want := [][]byte{a, b, a, b}
		var buf bytes.Buffer
		fw := NewWriter(&buf)
		for _, p := range want {
			if err := fw.WriteFrame(p); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewReader(&buf)
		for i, w := range want {
			p, err := fr.ReadFrame()
			if err != nil || !bytes.Equal(p, w) {
				t.Fatalf("frame %d: got %x, %v; want %x", i, p, err, w)
			}
		}
		if p, err := fr.ReadFrame(); err != io.EOF {
			t.Fatalf("after the last frame: got %x, %v; want io.EOF", p, err)
		}
	})
}

// chaosFrameStream renders the canonical stream FuzzChaosFrame mangles —
// a hello, small chatty frames and one large frame standing in for a
// migration snapshot, long enough for tight schedules to land many
// faults — and the byte offset where each frame ends.
func chaosFrameStream(tb testing.TB) (stream []byte, payloads [][]byte, frameEnds []int) {
	tb.Helper()
	bulk := make([]byte, 16<<10)
	for i := range bulk {
		bulk[i] = byte(i * 31)
	}
	payloads = [][]byte{
		Hello{Proto: "serve", Version: 5}.Payload(),
		Hello{Proto: "serve", Version: 5, Info: "Smart EXP3"}.Payload(),
		[]byte("select 1"), []byte("selected 1"), bulk, []byte("feedback"),
		binary.BigEndian.AppendUint64(nil, 7),
	}
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	for _, p := range payloads {
		if err := fw.WriteFrame(p); err != nil {
			tb.Fatal(err)
		}
		frameEnds = append(frameEnds, buf.Len())
	}
	return buf.Bytes(), payloads, frameEnds
}

// FuzzChaosFrame feeds chaos-mangled frame streams to the frame reader.
// The invariant is the checksums' contract: every frame wholly before the
// first fault reads back exactly as it was written, the frame containing
// the fault surfaces an error (a damaged header or body must never be
// delivered), and the stream stays dead after it.
func FuzzChaosFrame(f *testing.F) {
	for _, s := range frametest.ChaosFrameSeeds() {
		f.Add(s.Seed, s.MinGap, s.MaxGap, s.Corrupt, s.Cut)
	}
	clean, want, frameEnds := chaosFrameStream(f)
	f.Fuzz(func(t *testing.T, seed int64, minGap, maxGap, corrupt, cut uint64) {
		faults := chaos.Faults{
			Seed:   seed,
			MinGap: int(minGap % 4096), MaxGap: int(maxGap % 8192),
			Corrupt: int(corrupt % 8), Cut: int(cut % 8),
		}
		mangled, first := chaos.Mangle(clean, faults)
		intact := 0
		for _, end := range frameEnds {
			if end > first {
				break
			}
			intact++
		}
		fr := NewReader(bytes.NewReader(mangled))
		for i := 0; i < intact; i++ {
			got, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d ends before the first fault at %d but failed: %v", i, first, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("frame %d ends before the first fault at %d but reads differently", i, first)
			}
		}
		for i := 0; i < 32; i++ {
			if _, err := fr.ReadFrame(); err == nil {
				t.Fatalf("read %d past the first fault at %d succeeded", intact+i, first)
			}
		}
	})
}

// TestWriteFuzzFrameDecodeCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzFrameDecode when UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzFrameDecodeCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzFrameDecode", fuzzSeedFrames(t))
}

// TestWriteFuzzChaosFrameCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzChaosFrame when UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzChaosFrameCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzChaosFrame", frametest.ChaosFrameSeeds())
}
