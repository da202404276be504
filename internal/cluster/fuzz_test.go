package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"smartexp3/internal/frame"
	"smartexp3/internal/sim"
)

// encodeFrames renders a sequence of envelopes exactly as a peer would emit
// them on one connection: a single persistent encoder, so later frames omit
// the type descriptors the first frame introduced.
func encodeFrames(tb testing.TB, envs ...*envelope) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf)
	for _, env := range envs {
		if err := fw.Encode(env); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// nextEnvelope decodes one envelope from a raw frame reader, into a fresh
// envelope as readEnvelope does.
func nextEnvelope(fr *frame.Reader) (*envelope, error) {
	var env envelope
	if err := fr.Decode(&env); err != nil {
		return nil, err
	}
	return &env, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader renders the frame layer's 12-byte header for a payload of
// length n and checksum sum, with its own header checksum valid, so a seed
// can carry exactly the framing fault it names.
func frameHeader(n, sum uint32) []byte {
	h := binary.BigEndian.AppendUint32(nil, n)
	h = binary.BigEndian.AppendUint32(h, sum)
	return binary.BigEndian.AppendUint32(h, crc32.Checksum(h, castagnoli))
}

// fuzzSeedFrames returns the checked-in seed corpus for FuzzFrameDecode: one
// well-formed stream per message class, a multi-frame session prefix, and
// the classic framing corruptions (zero length, oversized length, truncated
// body, trailing garbage inside a frame).
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	ack := &envelope{JobAck: &jobAckMsg{ID: 1}}
	rng := &envelope{Range: &rangeMsg{Job: 1, First: 0, Count: 8}}
	res := &envelope{RunResult: &runResultMsg{Job: 1, Run: 3, Res: &sim.Result{
		Slots:    4,
		Distance: []float64{0.5, 0.25, 0.125, 0},
	}}}
	seeds := [][]byte{
		encodeFrames(tb, ack),
		encodeFrames(tb, &envelope{JobAck: &jobAckMsg{ID: 2, Err: "no slots"}}),
		encodeFrames(tb, rng),
		encodeFrames(tb, res),
		encodeFrames(tb, &envelope{RangeDone: &rangeDoneMsg{Job: 1, First: 0}}),
		encodeFrames(tb, &envelope{Ping: &pingMsg{Seq: 7}}, &envelope{Pong: &pongMsg{Seq: 7}}),
		encodeFrames(tb, &envelope{JobRelease: &jobReleaseMsg{ID: 1}}),
		// A realistic session prefix: several frames sharing one gob stream.
		encodeFrames(tb, ack, rng, res, res),
		// Framing corruptions.
		make([]byte, 12),                                  // zero-length frame, header checksum wrong too
		frameHeader(0xffffffff, 0),                        // length far beyond the frame cap
		append(frameHeader(5, 0), 1, 2),                   // body shorter than its prefix
		append(frameHeader(4, 0), 0xde, 0xad, 0xbe, 0xef), // checksum mismatch
	}
	truncated := encodeFrames(tb, ack)
	seeds = append(seeds, truncated[:len(truncated)-3])
	flipped := encodeFrames(tb, ack)
	flipped[len(flipped)-1] ^= 0x01 // payload damaged in flight: CRC must catch it
	seeds = append(seeds, flipped)
	padded := encodeFrames(tb, ack)
	body := append(padded[12:], 0xde, 0xad) // trailing bytes inside the declared frame
	seeds = append(seeds, append(frameHeader(uint32(len(body)), crc32.Checksum(body, castagnoli)), body...))
	return seeds
}

// FuzzFrameDecode throws arbitrary byte streams at the cluster envelope
// decoder over the frame layer. The invariant under test is that a hostile
// or corrupt peer can produce only an error: no panic, no unbounded
// allocation, no gob decode of a damaged envelope, and once a stream
// errors it keeps erroring rather than resynchronizing on garbage.
// internal/frame's FuzzFrameDecode fuzzes the framing itself.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frame.NewReader(bytes.NewReader(data))
		sawErr := false
		for i := 0; i < 64; i++ {
			_, err := nextEnvelope(fr)
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

// FuzzFrameRoundTrip checks the cluster envelopes against the frame codec:
// any envelope we can encode must decode back to equal field values, frame
// by frame, through the persistent per-connection codec pair.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), 0, 8, int64(42))
	f.Add(uint64(1<<63), -1, 0, int64(-1))
	f.Fuzz(func(t *testing.T, job uint64, first, count int, seq int64) {
		in := []*envelope{
			{Range: &rangeMsg{Job: job, First: first, Count: count}},
			{Ping: &pingMsg{Seq: uint64(seq)}},
			{RangeDone: &rangeDoneMsg{Job: job, First: first, Err: fmt.Sprint(seq)}},
		}
		fr := frame.NewReader(bytes.NewReader(encodeFrames(t, in...)))
		for i, want := range in {
			got, err := nextEnvelope(fr)
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
