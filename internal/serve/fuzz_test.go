package serve

import (
	"bytes"
	"testing"

	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
)

// encodeServeFrames renders a client request sequence exactly as a real
// client would: the hello h unless nil, then each message encoded by the
// serve codec, all framed by frame.Writer.WriteFrame.
func encodeServeFrames(tb testing.TB, h *frame.Hello, msgs ...*message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf)
	if h != nil {
		if err := fw.WriteFrame(h.Payload()); err != nil {
			tb.Fatal(err)
		}
	}
	var scratch []byte
	for _, m := range msgs {
		scratch = m.appendTo(scratch[:0])
		if err := fw.WriteFrame(scratch); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzServeSeeds is the checked-in seed corpus for FuzzServeRequest: a full
// well-formed session, each request class alone, hostile arm sets, and
// framing corruptions.
func fuzzServeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	sel := &message{tag: tagSelect, sel: selectMsg{Seq: 1, Device: 7, Arms: []int{1, 2, 3}}}
	fb := &message{tag: tagFeedback, feedback: feedbackBatchMsg{Items: []FeedbackItem{
		{Device: 7, Arm: 2, Reward: 0.5},
		{Device: 9, Arm: 1, Reward: 2},
	}}}
	selectArms := func(arms []int) *message {
		return &message{tag: tagSelect, sel: selectMsg{Seq: 1, Device: 1, Arms: arms}}
	}
	seeds := [][]byte{
		encodeServeFrames(tb, &hello),
		encodeServeFrames(tb, &hello, sel, fb,
			&message{tag: tagPing, ping: servePingMsg{Seq: 1}},
			&message{tag: tagRelease, release: releaseMsg{Devices: []uint64{7}}}),
		encodeServeFrames(tb, &frame.Hello{Proto: "serve", Version: 99}),
		// Hostile requests a conforming codec can still deliver.
		encodeServeFrames(tb, &hello, selectArms([]int{})),
		encodeServeFrames(tb, &hello, selectArms([]int{5, 5, 1})),
		encodeServeFrames(tb, &hello, selectArms(make([]int, 5000))),
		encodeServeFrames(tb, &hello, &message{tag: 0}),                                   // no such message
		encodeServeFrames(tb, &hello, &message{tag: tagPong, pong: servePongMsg{Seq: 1}}), // a reply the server must refuse
		// Framing corruptions.
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0},
	}
	trunc := encodeServeFrames(tb, &hello, sel)
	seeds = append(seeds, trunc[:len(trunc)-4])
	return seeds
}

// FuzzServeRequest throws arbitrary byte streams at a live server
// connection loop. The invariants: no panic, the loop terminates (the
// input is finite, so every path must end in an error or EOF), and the
// store underneath stays consistent enough to serve a clean scripted
// session afterwards.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range fuzzServeSeeds(f) {
		f.Add(seed)
	}
	store, err := NewStore(Config{Seed: 42, MaxArms: 64})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{FrameTimeout: -1})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = srv.serveConn(&frametest.Conn{R: bytes.NewReader(data)})
		// The store survives whatever the connection did: a fresh device
		// must still select within its arm set.
		arms := []int{100000, 100001}
		arm, sl, err := store.Select(1<<60, arms)
		if err != nil {
			t.Fatalf("store broken after fuzzed connection: %v", err)
		}
		if arm != arms[0] && arm != arms[1] {
			t.Fatalf("store selected %d outside the arm set after fuzzed connection", arm)
		}
		store.Feedback(1<<60, arm, sl, 0.5)
		store.Release(1 << 60)
	})
}

// fuzzCodecSeeds is the checked-in seed corpus for FuzzServeCodec: every
// codecSamples payload, and the malformed shapes the decoder must refuse — an unknown tag, an
// overlong varint, a count larger than the bytes left, a bad presence
// byte, trailing bytes and truncation.
func fuzzCodecSeeds() [][]byte {
	var seeds [][]byte
	for _, m := range codecSamples() {
		seeds = append(seeds, m.appendTo(nil))
	}
	return append(seeds,
		[]byte{0},                      // unknown tag
		[]byte{byte(tagPing), 0x80, 0}, // overlong varint
		[]byte{byte(tagSelect), 1, 7, 0xff, 0xff, 0x03, 2},               // count beyond the payload
		[]byte{byte(tagSelected), 1, 4, 9, 0, 2},                         // presence byte 2
		[]byte{byte(tagPong), 1, 0},                                      // trailing byte
		[]byte{byte(tagFeedback), 1, 0x80, 1, 4, 3, 0, 0, 0, 0, 0, 0, 0}, // truncated reward
	)
}

// FuzzServeCodec throws arbitrary payloads at the serve decoder. The
// invariants: no panic; every payload that decodes re-encodes to exactly
// the same bytes (the layout is canonical, so nothing is silently
// normalized); and no decoded list is longer than the payload, so a
// hostile count can never size storage beyond the bytes that arrived.
func FuzzServeCodec(f *testing.F) {
	for _, seed := range fuzzCodecSeeds() {
		f.Add(seed)
	}
	var m message // reused across inputs, as a connection reuses it
	f.Fuzz(func(t *testing.T, p []byte) {
		err := m.decode(p)
		var n int // the decoded message's list length, if it has one
		switch m.tag {
		case tagSelect:
			n = len(m.sel.Arms)
		case tagFeedback:
			n = len(m.feedback.Items)
		case tagRejected:
			n = len(m.rejected.Items)
		case tagRelease:
			n = len(m.release.Devices)
		}
		if n > len(p) {
			t.Fatalf("decoded a %d-element list from a %d-byte payload", n, len(p))
		}
		if err != nil {
			return
		}
		if got := m.appendTo(nil); !bytes.Equal(got, p) {
			t.Fatalf("payload %x decodes (tag %d) but re-encodes as %x", p, m.tag, got)
		}
	})
}

// TestWriteFuzzServeRequestCorpus regenerates the checked-in seed corpora under
// testdata/fuzz/FuzzServeRequest and testdata/fuzz/FuzzServeCodec when
// UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzServeRequestCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzServeRequest", fuzzServeSeeds(t))
	frametest.WriteCorpus(t, "FuzzServeCodec", fuzzCodecSeeds())
}
