package frame

import (
	"net"
	"sync"
	"testing"
	"time"
)

// deadlineConn records every deadline a Conn sets on it.
type deadlineConn struct {
	net.Conn
	mu          sync.Mutex
	read, write []time.Time
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.read = append(c.read, t)
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.write = append(c.write, t)
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// calls returns copies of the recorded read and write deadlines.
func (c *deadlineConn) calls() (read, write []time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.read...), append([]time.Time(nil), c.write...)
}

// echoConn returns a Conn with the given timeout and read policy over a
// recorded pipe whose far end echoes every frame back.
func echoConn(t *testing.T, timeout time.Duration, readEach bool) (*Conn, *deadlineConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		peer := NewConn(b, 0, 0, false)
		for {
			p, err := peer.ReadFrame()
			if err != nil || peer.WriteFrames(p) != nil {
				return
			}
		}
	}()
	dc := &deadlineConn{Conn: a}
	return NewConn(dc, 0, timeout, readEach), dc
}

// TestConnArmsLazily pins the lazy deadline contract: a burst of frames
// inside timeout/16 sets one deadline per direction; the deadline in
// force during every operation lies between the operation's start plus
// the timeout and its end plus 17/16 of it, so no frame times out sooner
// than the timeout; and the first operation after timeout/16 has passed
// arms afresh.
func TestConnArmsLazily(t *testing.T) {
	const timeout = 16 * time.Second
	c, dc := echoConn(t, timeout, true)
	in := func(d, start, end time.Time) bool {
		return !d.Before(start.Add(timeout)) && !d.After(end.Add(timeout+timeout/16))
	}
	payload := []byte("ping")
	for i := 0; i < 1000; i++ {
		start := time.Now()
		if err := c.WriteFrames(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		end := time.Now()
		read, write := dc.calls()
		if len(read) == 0 || len(write) == 0 {
			t.Fatalf("op %d ran with no deadline armed: %d read, %d write calls", i, len(read), len(write))
		}
		if r, w := read[len(read)-1], write[len(write)-1]; !in(r, start, end) || !in(w, start, end) {
			t.Fatalf("op %d (%v..%v) ran under read deadline %v, write deadline %v", i, start, end, r, w)
		}
	}
	if read, write := dc.calls(); len(read) != 1 || len(write) != 1 {
		t.Fatalf("1,000 writes and reads inside timeout/16 made %d read and %d write deadline calls, want 1 each", len(read), len(write))
	}

	const short = 1600 * time.Millisecond
	c, dc = echoConn(t, short, true)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(short/16 + 10*time.Millisecond)
		}
		if err := c.WriteFrames(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if read, write := dc.calls(); len(read) != 2 || len(write) != 2 {
		t.Fatalf("an op after timeout/16 left %d read and %d write deadline calls, want 2 each (re-armed)", len(read), len(write))
	}
}

// TestConnArmReadClearsOnce pins ArmRead's half of the contract: arming
// is lazy like every frame operation's, a clear reaches the connection
// only when a deadline is set, and a repeated clear makes no call.
func TestConnArmReadClearsOnce(t *testing.T) {
	c, dc := echoConn(t, time.Minute, false)
	steps := []struct {
		owed  bool
		calls int // read deadline calls recorded after the step
	}{
		{false, 0}, // nothing set: nothing to clear
		{true, 1},
		{true, 1}, // still a full timeout away
		{false, 2},
		{false, 2},
		{true, 3},
	}
	for i, s := range steps {
		if err := c.ArmRead(s.owed); err != nil {
			t.Fatal(err)
		}
		read, _ := dc.calls()
		if len(read) != s.calls {
			t.Fatalf("step %d (ArmRead(%v)): %d read deadline calls, want %d", i, s.owed, len(read), s.calls)
		}
		if len(read) > 0 && read[len(read)-1].IsZero() == s.owed {
			t.Fatalf("step %d (ArmRead(%v)) left deadline %v", i, s.owed, read[len(read)-1])
		}
	}
}

// TestConnDisabledTimeoutSetsNoDeadline pins the disabled timeout: with
// it at 0, no frame operation and no ArmRead touches a deadline.
func TestConnDisabledTimeoutSetsNoDeadline(t *testing.T) {
	c, dc := echoConn(t, 0, true)
	for i := 0; i < 10; i++ {
		if err := c.WriteFrames([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ArmRead(true); err != nil {
		t.Fatal(err)
	}
	if err := c.ArmRead(false); err != nil {
		t.Fatal(err)
	}
	if read, write := dc.calls(); len(read) != 0 || len(write) != 0 {
		t.Fatalf("disabled timeout made %d read and %d write deadline calls", len(read), len(write))
	}
}
