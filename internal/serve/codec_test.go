package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
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
		frametest.RefusesPrefixes(t, fmt.Sprintf("tag %d", want.tag), p, func(q []byte) error {
			var short message
			return short.decode(q)
		})
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

// writeCountingConn counts the writes that reach the socket and the
// deadlines set on it.
type writeCountingConn struct {
	net.Conn
	writes                        int
	readDeadlines, writeDeadlines int
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

func (c *writeCountingConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines++
	return c.Conn.SetReadDeadline(t)
}

func (c *writeCountingConn) SetWriteDeadline(t time.Time) error {
	c.writeDeadlines++
	return c.Conn.SetWriteDeadline(t)
}

// dialOnce returns a dialer that hands out conn once and refuses every
// redial, for tests that hold the transport themselves: a test that counts
// one connection's traffic must fail on a redial, not count a fresh one.
func dialOnce(conn net.Conn) func() (net.Conn, error) {
	dialed := false
	return func() (net.Conn, error) {
		if dialed {
			return nil, errors.New("daemon unreachable")
		}
		dialed = true
		return conn, nil
	}
}

// dialCounting connects a client to addr through a writeCountingConn.
func dialCounting(t *testing.T, addr string, opts ClientOptions) (*Client, *writeCountingConn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &writeCountingConn{Conn: raw}
	c, err := NewClient(dialOnce(conn), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, conn
}

// TestClientOneWritePerOperation pins the single flush: a Select, Ping or
// Release carrying buffered feedback reaches the socket as one write, the
// feedback frame and the request frame together.
func TestClientOneWritePerOperation(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, conn := dialCounting(t, addr, ClientOptions{FrameTimeout: 30 * time.Second})
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

// TestClientArmsDeadlinesPerConnection pins lazy deadline arming end to
// end: 10,000 warm Select+Feedback operations, handshake included, set at
// most two deadlines per direction on the client's socket, where arming
// per frame would set over 10,000 of each.
func TestClientArmsDeadlinesPerConnection(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, conn := dialCounting(t, addr, ClientOptions{FrameTimeout: 30 * time.Second})
	arms := []int{1, 2, 3}
	for i := 0; i < 10000; i++ {
		device := uint64(i % 64)
		arm, slot, err := c.SelectSlot(device, arms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FeedbackSlot(device, arm, slot, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if conn.readDeadlines > 2 || conn.writeDeadlines > 2 {
		t.Fatalf("10,000 operations set %d read and %d write deadlines, want at most 2 each", conn.readDeadlines, conn.writeDeadlines)
	}
}

// TestClientFeedbackFlushesPerBatchAndDropsNothing pins the eager flush
// on a live connection with no response barrier in sight: n reports are
// written once per feedbackBatch (256) reports, none is dropped (past
// maxBufferedFeedback, 4096, a Ping confirms the unconfirmed queue
// instead), and the store applies every one.
func TestClientFeedbackFlushesPerBatchAndDropsNothing(t *testing.T) {
	for _, n := range []int{1000, 5000} {
		store, addr := startServer(t, Config{})
		c, conn := dialCounting(t, addr, ClientOptions{FrameTimeout: 30 * time.Second})
		arms := []int{1, 2, 3}
		picks := make([][2]uint64, n) // arm, slot per device
		for d := range picks {
			arm, slot, err := c.SelectSlot(uint64(d), arms)
			if err != nil {
				t.Fatal(err)
			}
			picks[d] = [2]uint64{uint64(arm), slot}
		}
		before := conn.writes
		for d, p := range picks {
			if err := c.FeedbackSlot(uint64(d), int(p[0]), p[1], 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if w, max := conn.writes-before, (n+255)/256+1; w > max {
			t.Fatalf("n=%d: %d reports took %d writes, want at most %d", n, n, w, max)
		}
		if d, r := c.DroppedFeedback(), c.Reconnects(); d != 0 || r != 0 {
			t.Fatalf("n=%d: a connected client dropped %d reports (%d reconnects)", n, d, r)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		for d, p := range picks {
			if _, slot, err := store.Select(uint64(d), arms); err != nil || slot != p[1]+1 {
				t.Fatalf("n=%d: device %d's report was not applied: next slot %d, %v; want %d", n, d, slot, err, p[1]+1)
			}
		}
		if d := store.Dropped(); d != 0 {
			t.Fatalf("n=%d: store dropped %d reports", n, d)
		}
	}
}

// TestClientOverloadGuardDropsOldestWhileUnreachable pins the overload
// guard's documented job: with the daemon unreachable, the client holds
// the newest maxBufferedFeedback (4096) reports and drops and counts the
// older ones.
func TestClientOverloadGuardDropsOldestWhileUnreachable(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		frame.NewConn(b, 0, 0, false).Accept(hello)
		b.Close() // the daemon goes away right after the handshake
	}()
	c, err := NewClient(dialOnce(a), ClientOptions{FrameTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	const over = 150
	for i := 0; i < maxBufferedFeedback+over; i++ {
		if err := c.FeedbackSlot(7, 0, uint64(i), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.DroppedFeedback(); d != over {
		t.Fatalf("dropped %d reports, want %d", d, over)
	}
	last := maxBufferedFeedback + over - 1
	if len(c.batch) != maxBufferedFeedback || c.batch[0].Slot != over || c.batch[len(c.batch)-1].Slot != uint64(last) {
		t.Fatalf("kept %d reports, slots %d..%d; want the newest %d (%d..%d)", len(c.batch), c.batch[0].Slot, c.batch[len(c.batch)-1].Slot, maxBufferedFeedback, over, last)
	}
}
