package serve

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"
)

// codecSamples is one representative of every message, optional parts
// and extreme values included.
func codecSamples() []message {
	items := []FeedbackItem{
		{Device: 7, Arm: 2, Slot: 3, Reward: 0.5},
		{Device: math.MaxUint64, Arm: math.MinInt, Slot: math.MaxUint64, Reward: math.Inf(-1)},
		{Device: 0, Arm: math.MaxInt, Slot: 0, Reward: math.Float64frombits(0x7ff8_0000_dead_beef)}, // NaN payload
	}
	return []message{
		{tag: tagSelect, sel: selectMsg{}}, // empty arm list
		{tag: tagRejected, rejected: feedbackRejectedMsg{}},
		{tag: tagSelect, sel: selectMsg{Seq: 1, Device: 1 << 62, Arms: []int{-3, 0, 5, math.MaxInt}}},
		{tag: tagSelected, selected: selectedMsg{Seq: 2, Arm: 5, Slot: 300}},
		{tag: tagSelected, selected: selectedMsg{Seq: 3, Arm: -1, Err: "bad arms"}},
		{tag: tagSelected, selected: selectedMsg{Seq: 4, Arm: -1, Redirect: true, NotOwner: notOwnerMsg{Epoch: 9, Owner: "peer:1"}}},
		{tag: tagFeedback, feedback: feedbackBatchMsg{Items: items}},
		{tag: tagRejected, rejected: feedbackRejectedMsg{Epoch: 11, Items: items}},
		{tag: tagRelease, release: releaseMsg{Devices: []uint64{0, 1, math.MaxUint64}}},
		{tag: tagPing, ping: servePingMsg{Seq: math.MaxUint64}},
		{tag: tagPong, pong: servePongMsg{Seq: 0}},
	}
}

// TestWireCodecRoundTrip pins the codec's contract on every message:
// decode inverts encode — re-encoding the decoded message, through one
// reused message as a connection uses it, reproduces the payload, and
// since encoding is injective that means every field (reward bits
// included) survived — and any strict prefix of a payload is refused
// rather than decoded short.
func TestWireCodecRoundTrip(t *testing.T) {
	var got message
	for _, want := range codecSamples() {
		p := want.appendTo(nil)
		if err := got.decode(p); err != nil {
			t.Fatalf("tag %d: %v", want.tag, err)
		}
		if got.tag != want.tag {
			t.Fatalf("tag %d decoded as tag %d", want.tag, got.tag)
		}
		if q := got.appendTo(nil); !bytes.Equal(q, p) {
			t.Fatalf("tag %d: re-encoding differs:\n%x\n%x", want.tag, p, q)
		}
		for n := 0; n < len(p); n++ {
			var short message
			if err := short.decode(p[:n]); err == nil {
				t.Fatalf("tag %d: %d-byte prefix of a %d-byte payload decoded", want.tag, n, len(p))
			}
		}
	}
}

// TestWireCodecWarmAllocs is the allocation gate behind the codec's
// //repolint:allocfree markers: once a connection's scratch buffer and
// decode storage have grown, encoding and decoding Select, Selected,
// Feedback and Ping — every frame of a warm decision — allocate nothing.
func TestWireCodecWarmAllocs(t *testing.T) {
	items := []FeedbackItem{{Device: 7, Arm: 2, Slot: 41, Reward: 0.9}, {Device: 8, Arm: 0, Slot: 40, Reward: 0.2}}
	msgs := []message{
		{tag: tagSelect, sel: selectMsg{Seq: 1, Device: 7, Arms: []int{0, 1, 2, 3}}},
		{tag: tagSelected, selected: selectedMsg{Seq: 1, Arm: 2, Slot: 42}},
		{tag: tagFeedback, feedback: feedbackBatchMsg{Items: items}},
		{tag: tagPing, ping: servePingMsg{Seq: 3}},
	}
	var scratch []byte
	var in message
	roundTrip := func() {
		for i := range msgs {
			scratch = msgs[i].appendTo(scratch[:0])
			if err := in.decode(scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip() // grow the scratch buffer and the decode storage
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("warm encode+decode costs %.1f allocs/op, want 0", allocs)
	}
}

// writeCountingConn counts the writes that reach the socket.
type writeCountingConn struct {
	net.Conn
	writes int
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestClientOneWritePerOperation pins the single flush: a Select, Ping or
// Release carrying buffered feedback reaches the socket as one write, the
// feedback frame and the request frame together.
func TestClientOneWritePerOperation(t *testing.T) {
	_, addr := startServer(t, Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &writeCountingConn{Conn: raw}
	c, err := NewClient(conn, ClientOptions{FrameTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arms := []int{1, 2, 3}
	arm, slot, err := c.SelectSlot(5, arms)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"select", func() error {
			var err error
			arm, slot, err = c.SelectSlot(5, arms)
			return err
		}},
		{"ping", c.Ping},
		{"release", func() error { return c.Release(5) }},
	} {
		if err := c.FeedbackSlot(5, arm, slot, 0.5); err != nil {
			t.Fatal(err)
		}
		before := conn.writes
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if n := conn.writes - before; n != 1 {
			t.Fatalf("%s with buffered feedback made %d writes, want 1", op.name, n)
		}
	}
}
