package cluster

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
	"smartexp3/internal/sim"
)

// encodeFrames renders a sequence of messages exactly as a peer would
// emit them on one connection: each encoded by the codec and framed by
// frame.Writer.WriteFrame.
func encodeFrames(tb testing.TB, msgs ...*message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf)
	for _, m := range msgs {
		if err := fw.WriteFrame(m.appendTo(nil)); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// msgStream reads a raw frame stream the way a connection loop does —
// frame, then codec — and, like the loops, which drop the connection on
// the first error of either kind, never reads past a failure.
type msgStream struct {
	fr  *frame.Reader
	err error
}

func newMsgStream(raw []byte) *msgStream {
	return &msgStream{fr: frame.NewReader(bytes.NewReader(raw))}
}

// next decodes the next frame into a fresh, self-contained message: a
// Range's config bytes are copied out of the frame buffer and the spent
// decode cursor is dropped.
func (s *msgStream) next() (*message, error) {
	if s.err != nil {
		return nil, s.err
	}
	var m message
	p, err := s.fr.ReadFrame()
	if err == nil {
		err = m.decode(p)
	}
	if err != nil {
		s.err = err
		return nil, err
	}
	m.rng.Config = bytes.Clone(m.rng.Config)
	m.r = frame.PayloadReader{}
	return &m, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fuzzSeedFrames returns the checked-in seed corpus for FuzzFrameDecode: one
// well-formed stream per message class, a multi-frame session prefix, and
// the classic framing corruptions (zero length, oversized length, truncated
// body, trailing garbage inside a frame).
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	spec, s1 := fullSpec(), setting1Spec()
	full, rng := rangeOf(1, 0, 8, &spec), rangeOf(2, 0, 4, &s1)
	next := rangeOf(2, 4, 4, &s1)
	res := &message{tag: tagRunResult, result: runResultMsg{Job: 2, Run: 3, Res: &sim.Result{
		Slots:    4,
		Distance: []float64{0.5, 0.25, 0.125, 0},
	}}}
	done := &message{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 2, First: 0}}
	seeds := [][]byte{
		encodeFrames(tb, &full),
		encodeFrames(tb, &rng),
		encodeFrames(tb, res),
		encodeFrames(tb, &message{tag: tagRunResult, result: runResultMsg{Job: 2, Run: 4}}),
		encodeFrames(tb, done),
		encodeFrames(tb, &message{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 1, First: 0, Err: "sim: no slots"}}),
		encodeFrames(tb, &message{tag: tagPing, ping: pingMsg{Seq: 7}}, &message{tag: tagPong, pong: pongMsg{Seq: 7}}),
		// A realistic session prefix, both directions interleaved.
		encodeFrames(tb, &rng, &next, res, res, done),
		// Framing corruptions.
		make([]byte, 12),                                       // zero-length frame, header checksum wrong too
		frametest.Header(0xffffffff, 0),                        // length far beyond the frame cap
		append(frametest.Header(5, 0), 1, 2),                   // body shorter than its prefix
		append(frametest.Header(4, 0), 0xde, 0xad, 0xbe, 0xef), // checksum mismatch
	}
	truncated := encodeFrames(tb, &rng)
	seeds = append(seeds, truncated[:len(truncated)-3])
	flipped := encodeFrames(tb, &rng)
	flipped[len(flipped)-1] ^= 0x01 // payload damaged in flight: CRC must catch it
	seeds = append(seeds, flipped)
	padded := encodeFrames(tb, done)
	body := append(padded[12:], 0xde, 0xad) // trailing bytes inside the declared frame
	seeds = append(seeds, append(frametest.Header(uint32(len(body)), crc32.Checksum(body, castagnoli)), body...))
	return seeds
}

// FuzzFrameDecode throws arbitrary byte streams at the cluster message
// decoder over the frame layer. The invariant under test is that a hostile
// or corrupt peer can produce only an error: no panic, no unbounded
// allocation, no decode of a damaged payload, and once a stream errors it
// keeps erroring rather than resynchronizing on garbage.
// internal/frame's FuzzFrameDecode fuzzes the framing itself, and
// FuzzClusterCodec the payload decoder alone.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := newMsgStream(data)
		sawErr := false
		for i := 0; i < 64; i++ {
			_, err := stream.next()
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

// FuzzFrameRoundTrip checks the cluster messages against the frame codec:
// any message we can encode must decode back to equal field values, frame
// by frame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), 0, 8, int64(42))
	f.Add(uint64(1<<63), -1, 0, int64(-1))
	s1 := setting1Spec()
	config := appendConfig(nil, &s1.Config)
	f.Fuzz(func(t *testing.T, job uint64, first, count int, seq int64) {
		in := []*message{
			{tag: tagRange, rng: rangeMsg{Job: job, First: first, Count: count, Runs: count, Seed: seq,
				Stream: []int64{seq}, Config: config}},
			{tag: tagPing, ping: pingMsg{Seq: uint64(seq)}},
			{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: job, First: first, Err: fmt.Sprint(seq)}},
		}
		stream := newMsgStream(encodeFrames(t, in...))
		for i, want := range in {
			got, err := stream.next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d: got %+v want %+v", i, got, want)
			}
		}
	})
}

// TestWriteFuzzFrameDecodeCorpus regenerates the checked-in seed corpora
// under testdata/fuzz/FuzzFrameDecode and testdata/fuzz/FuzzClusterCodec
// when UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzFrameDecodeCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzFrameDecode", fuzzSeedFrames(t))
	frametest.WriteCorpus(t, "FuzzClusterCodec", fuzzCodecSeeds())
}
