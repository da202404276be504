package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"smartexp3/internal/sim"
)

// encodeFrames renders a sequence of envelopes exactly as a peer would emit
// them on one connection: a single persistent encoder, so later frames omit
// the type descriptors the first frame introduced.
func encodeFrames(tb testing.TB, envs ...*envelope) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, env := range envs {
		if err := fw.write(env); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzSeedFrames returns the checked-in seed corpus for FuzzFrameDecode: one
// well-formed stream per message class, a multi-frame session prefix, and
// the classic framing corruptions (zero length, oversized length, truncated
// body, trailing garbage inside a frame).
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	hello := &envelope{Hello: &helloMsg{Version: protocolVersion}}
	rng := &envelope{Range: &rangeMsg{Job: 1, First: 0, Count: 8}}
	res := &envelope{RunResult: &runResultMsg{Job: 1, Run: 3, Res: &sim.Result{
		Slots:    4,
		Distance: []float64{0.5, 0.25, 0.125, 0},
	}}}
	seeds := [][]byte{
		encodeFrames(tb, hello),
		encodeFrames(tb, &envelope{HelloAck: &helloAckMsg{Version: protocolVersion}}),
		encodeFrames(tb, rng),
		encodeFrames(tb, res),
		encodeFrames(tb, &envelope{RangeDone: &rangeDoneMsg{Job: 1, First: 0}}),
		encodeFrames(tb, &envelope{Ping: &pingMsg{Seq: 7}}, &envelope{Pong: &pongMsg{Seq: 7}}),
		encodeFrames(tb, &envelope{JobRelease: &jobReleaseMsg{ID: 1}}),
		// A realistic session prefix: several frames sharing one gob stream.
		encodeFrames(tb, hello, rng, res, res),
		// Framing corruptions.
		{0, 0, 0, 0, 0, 0, 0, 0},                         // zero-length frame
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},             // length far beyond maxFrameBytes
		{0, 0, 0, 5, 0, 0, 0, 0, 1, 2},                   // body shorter than its prefix
		{0, 0, 0, 4, 0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}, // checksum mismatch
	}
	truncated := encodeFrames(tb, hello)
	seeds = append(seeds, truncated[:len(truncated)-3])
	flipped := encodeFrames(tb, hello)
	flipped[len(flipped)-1] ^= 0x01 // payload damaged in flight: CRC must catch it
	seeds = append(seeds, flipped)
	padded := encodeFrames(tb, hello)
	padded = append(padded, 0xde, 0xad)
	padded[3] += 2 // trailing bytes inside the declared frame
	binary.BigEndian.PutUint32(padded[4:8], crc32.Checksum(padded[frameHeaderSize:], castagnoli))
	seeds = append(seeds, padded)
	return seeds
}

// FuzzFrameDecode throws arbitrary byte streams at the frame reader. The
// invariant under test is that a hostile or corrupt peer can produce only an
// error: no panic, no unbounded allocation (the length prefix is checked
// before any buffer is sized), and once a stream errors it keeps erroring
// rather than resynchronizing on garbage.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		sawErr := false
		for i := 0; i < 64; i++ {
			_, err := fr.read()
			if err != nil {
				if sawErr {
					return // stream stays dead once it errors — done
				}
				sawErr = true
				continue // one more read to confirm the stream stays dead
			}
			if sawErr {
				t.Fatal("frame reader resynchronized after an error")
			}
		}
	})
}

// FuzzFrameRoundTrip checks the codec against itself: any envelope we can
// encode must decode back to equal field values, frame by frame, through the
// persistent per-connection codec pair.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), 0, 8, int64(42))
	f.Add(uint64(1<<63), -1, 0, int64(-1))
	f.Fuzz(func(t *testing.T, job uint64, first, count int, seq int64) {
		in := []*envelope{
			{Range: &rangeMsg{Job: job, First: first, Count: count}},
			{Ping: &pingMsg{Seq: uint64(seq)}},
			{RangeDone: &rangeDoneMsg{Job: job, First: first, Err: fmt.Sprint(seq)}},
		}
		fr := NewFrameReader(bytes.NewReader(encodeFrames(t, in...)))
		for i, want := range in {
			got, err := fr.read()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			switch {
			case want.Range != nil:
				if got.Range == nil || *got.Range != *want.Range {
					t.Fatalf("frame %d: got %+v want %+v", i, got.Range, want.Range)
				}
			case want.Ping != nil:
				if got.Ping == nil || *got.Ping != *want.Ping {
					t.Fatalf("frame %d: got %+v want %+v", i, got.Ping, want.Ping)
				}
			case want.RangeDone != nil:
				if got.RangeDone == nil || *got.RangeDone != *want.RangeDone {
					t.Fatalf("frame %d: got %+v want %+v", i, got.RangeDone, want.RangeDone)
				}
			}
		}
	})
}

// TestWriteFuzzFrameDecodeCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzFrameDecode when UPDATE_FUZZ_CORPUS=1. The files are the
// native go-fuzz corpus encoding, so `go test -fuzz` and plain `go test`
// both replay them.
func TestWriteFuzzFrameDecodeCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedFrames(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
