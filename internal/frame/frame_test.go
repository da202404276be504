package frame

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/frame/frametest"
)

// TestCorruptHeaderFailsFast pins the header checksum: a header with any
// one bit flipped — a length that still fits under the cap included —
// fails at the header read, with no body ever sent, instead of making the
// reader wait for a body that never comes until some frame timeout fires.
func TestCorruptHeaderFailsFast(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 100)
	valid := frametest.Header(uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	for bit := 0; bit < 8*headerSize; bit++ {
		hdr := append([]byte(nil), valid...)
		hdr[bit/8] ^= 0x80 >> (bit % 8)
		rd, wr := net.Pipe()
		go func() {
			wr.Write(hdr) // no body follows: a reader that trusts the length hangs
		}()
		// The backstop only turns a regression into a failure instead of a
		// hang; the assertion is the elapsed time below.
		rd.SetReadDeadline(time.Now().Add(2 * time.Second))
		start := time.Now()
		_, err := NewReader(rd).ReadFrame()
		elapsed := time.Since(start)
		rd.Close()
		wr.Close()
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("bit %d flipped: got %v, want a header checksum error", bit, err)
		}
		if elapsed > 100*time.Millisecond {
			t.Fatalf("bit %d flipped: failed after %v", bit, elapsed)
		}
	}
}

// TestFrameLengthGuards pins the framing hygiene: an oversized or zero
// length must be rejected before any allocation happens, even under a
// header whose own checksum holds.
func TestFrameLengthGuards(t *testing.T) {
	for _, raw := range [][]byte{
		frametest.Header(0xffffffff, 0),      // ~4 GiB claim
		frametest.Header(maxFrameBytes+1, 0), // just past the cap
		frametest.Header(0, 0),               // zero-length frame
	} {
		fr := NewReader(bytes.NewReader(raw))
		if _, err := fr.ReadFrame(); err == nil || !strings.Contains(err.Error(), "length") {
			t.Fatalf("frame header % x must be rejected by length, got %v", raw, err)
		}
		if fr.payload != nil {
			t.Fatalf("frame header % x sized a %d-byte buffer before rejecting it", raw, cap(fr.payload))
		}
	}
	fw := NewWriter(io.Discard)
	if err := fw.WriteFrame(nil); err == nil {
		t.Fatal("writer framed an empty payload the reader would refuse")
	}
}

// TestTimeoutResolution pins the one timeout rule every wire's options
// share: zero means the default, negative disables, anything else stands.
func TestTimeoutResolution(t *testing.T) {
	for opt, want := range map[time.Duration]time.Duration{
		0:           DefaultTimeout,
		-1:          0,
		time.Second: time.Second,
	} {
		if got := Timeout(opt); got != want {
			t.Errorf("Timeout(%v) = %v, want %v", opt, got, want)
		}
	}
}

// TestHelloPayload pins the hello codec: every field survives, and a
// payload without the magic, with a missing or extra field, or with a
// malformed version is not a hello.
func TestHelloPayload(t *testing.T) {
	want := Hello{Proto: "serve", Version: -3, Info: "Smart EXP3", Err: "no"}
	p := want.Payload()
	got, err := ParseHello(p)
	if err != nil || got != want {
		t.Fatalf("round trip: got %+v, %v", got, err)
	}
	for _, bad := range []string{
		"", "\x01\x05", "hello\x00serve\x005\x00\x00",
		"frame/hello\x00serve\x005\x00",         // a field short
		"frame/hello\x00serve\x005\x00\x00\x00", // a field over
		"frame/hello\x00serve\x00v5\x00\x00",    // version not a number
	} {
		if h, err := ParseHello([]byte(bad)); err == nil {
			t.Fatalf("%q parsed as %+v", bad, h)
		}
	}
}

// pipeConns returns a dialer and an acceptor Conn over a synchronous pipe,
// with deadlines that turn a hang into a failure.
func pipeConns(t *testing.T) (dialer, acceptor *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a, 0, 5*time.Second, false), NewConn(b, 0, 5*time.Second, true)
}

// TestHandshake pins the shared hello exchange: matching hellos trade
// their Info strings; a version or protocol mismatch and an explicit
// refusal fail both sides with ErrHandshake, the dialer's error naming
// both protocols; a reply that is not a hello fails the dialer with
// ErrHandshake; a first frame that is not a hello is refused.
func TestHandshake(t *testing.T) {
	type result struct {
		peer Hello
		err  error
	}
	run := func(dial, accept Hello) (Hello, error, Hello, error) {
		d, a := pipeConns(t)
		ch := make(chan result, 1)
		go func() {
			peer, err := a.Accept(accept)
			ch <- result{peer, err}
		}()
		ack, err := d.Greet(dial)
		r := <-ch
		return ack, err, r.peer, r.err
	}

	ack, err, peer, aerr := run(Hello{Proto: "fleet", Version: 2, Info: "coord"}, Hello{Proto: "fleet", Version: 2, Info: "p1"})
	if err != nil || aerr != nil || ack.Info != "p1" || peer.Info != "coord" {
		t.Fatalf("matching hellos: ack %+v, %v; peer %+v, %v", ack, err, peer, aerr)
	}

	for name, accept := range map[string]Hello{
		"version":  {Proto: "serve", Version: 6},
		"protocol": {Proto: "cluster", Version: 5},
	} {
		_, err, _, aerr := run(Hello{Proto: "serve", Version: 5}, accept)
		if !errors.Is(err, ErrHandshake) || !errors.Is(aerr, ErrHandshake) {
			t.Fatalf("%s mismatch: dialer %v, acceptor %v", name, err, aerr)
		}
		if !strings.Contains(err.Error(), "serve v5") || !strings.Contains(err.Error(), accept.Proto) {
			t.Fatalf("%s mismatch: dialer error does not name both sides: %v", name, err)
		}
	}

	_, err, _, aerr = run(Hello{Proto: "cluster", Version: 4}, Hello{Proto: "cluster", Version: 4, Err: "no capacity"})
	if !errors.Is(err, ErrHandshake) || !strings.Contains(err.Error(), "no capacity") || !errors.Is(aerr, ErrHandshake) {
		t.Fatalf("refusal: dialer %v, acceptor %v", err, aerr)
	}

	d, a := pipeConns(t)
	go func() {
		a.ReadFrame()
		a.WriteFrames([]byte{1, 2, 3})
	}()
	if _, err := d.Greet(Hello{Proto: "serve", Version: 5}); !errors.Is(err, ErrHandshake) {
		t.Fatalf("non-hello reply: got %v, want ErrHandshake", err)
	}

	d, a = pipeConns(t)
	reply := make(chan []byte, 1)
	go func() {
		d.WriteFrames([]byte{1, 2, 3})
		p, _ := d.ReadFrame()
		reply <- append([]byte(nil), p...)
	}()
	if _, err := a.Accept(Hello{Proto: "serve", Version: 5}); !errors.Is(err, ErrHandshake) {
		t.Fatalf("non-hello first frame: got %v, want ErrHandshake", err)
	}
	if h, err := ParseHello(<-reply); err != nil || !strings.Contains(h.Err, "protocol mismatch") {
		t.Fatalf("non-hello first frame not refused by name: %+v, %v", h, err)
	}
}
