package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartexp3/internal/frame"
)

// startServer serves a fresh store on loopback and returns its address.
func startServer(t *testing.T, cfg Config) (*Store, string) {
	t.Helper()
	return startServerOpts(t, cfg, ServerOptions{FrameTimeout: 30 * time.Second})
}

// startServerOpts is startServer with the server's transport options.
func startServerOpts(t *testing.T, cfg Config, opts ServerOptions) (*Store, string) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	store, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		<-done
	})
	return store, ln.Addr().String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, ClientOptions{FrameTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerEndToEndMatchesDirectStore is the wire layer's correctness
// anchor: a script through Client/Server must decide exactly as the same
// script applied to a Store in process — the transport adds latency,
// never behavior.
func TestServerEndToEndMatchesDirectStore(t *testing.T) {
	store, addr := startServer(t, Config{})
	c := dialTest(t, addr)
	if alg := c.Algorithm(); alg != "Smart EXP3" {
		t.Fatalf("handshake reports algorithm %q", alg)
	}

	direct := newTestStore(t, Config{})
	devices := []uint64{1, 2, 3}
	arms := []int{10, 20, 30}
	for slot := 0; slot < 120; slot++ {
		for _, dev := range devices {
			got, gotSlot, err := c.SelectSlot(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSlot, err := direct.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("slot %d device %d: wire selected %d, direct store %d", slot, dev, got, want)
			}
			if err := c.FeedbackSlot(dev, got, gotSlot, reward(dev, got, slot)); err != nil {
				t.Fatal(err)
			}
			direct.Feedback(dev, want, wantSlot, reward(dev, want, slot))
		}
	}
	// The last batch may still be buffered client-side; a Ping flushes it.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if d := store.Dropped(); d != 0 {
		t.Fatalf("served script dropped %d reports", d)
	}
	if err := c.Release(devices...); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // barrier: release is fire-and-forget
		t.Fatal(err)
	}
	if n := store.Devices(); n != 0 {
		t.Fatalf("store tracks %d devices after release", n)
	}
}

// TestServerRequestErrorKeepsSessionUsable pins the error taxonomy: a bad
// request is answered, not a reason to drop the connection.
func TestServerRequestErrorKeepsSessionUsable(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialTest(t, addr)
	if _, _, err := c.SelectSlot(1, []int{3, 1}); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("unsorted arms: got %v, want an ascending-arms rejection", err)
	}
	arm, _, err := c.SelectSlot(1, []int{1, 3})
	if err != nil {
		t.Fatalf("session unusable after a request error: %v", err)
	}
	if arm != 1 && arm != 3 {
		t.Fatalf("selected arm %d outside the arm set", arm)
	}
}

// v3HelloMsg and v3Envelope reproduce the protocol-3 handshake's gob shape:
// a client from that era opened with a gob-encoded envelope whose Hello
// field carried its version.
type v3HelloMsg struct{ Version int }
type v3HelloAckMsg struct {
	Version   int
	Algorithm string
	Err       string
}
type v3Envelope struct {
	Hello    *v3HelloMsg
	HelloAck *v3HelloAckMsg
}

// v3Frame writes env as a protocol-3 peer did: the bytes of one fresh gob
// encoder's Encode call (type descriptors, then the value) as one frame.
func v3Frame(fw *frame.Writer, env *v3Envelope) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return err
	}
	return fw.WriteFrame(buf.Bytes())
}

// TestServerRejectsVersionMismatch pins the handshake across protocol
// eras: a client greeting with the next serve version, and a client whose
// first frame is a gob-era (protocol 3) hello envelope instead of the
// frame layer's hello, are both answered with a hello reply that names the
// protocol mismatch, and the connection is then closed — no panic, no
// hang.
func TestServerRejectsVersionMismatch(t *testing.T) {
	_, addr := startServer(t, Config{})
	for _, tc := range []struct {
		name  string
		first func(*testing.T, *frame.Writer)
	}{
		{"v4-codec-next-version", func(t *testing.T, fw *frame.Writer) {
			next := hello
			next.Version++
			if err := fw.WriteFrame(next.Payload()); err != nil {
				t.Fatal(err)
			}
		}},
		{"gob-v3-hello", func(t *testing.T, fw *frame.Writer) {
			if err := v3Frame(fw, &v3Envelope{Hello: &v3HelloMsg{Version: 3}}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			tc.first(t, frame.NewWriter(conn))
			fr := frame.NewReader(conn)
			p, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("no handshake reply: %v", err)
			}
			reply, err := frame.ParseHello(p)
			if err != nil {
				t.Fatalf("handshake reply is not a hello: %v", err)
			}
			if !strings.Contains(reply.Err, "protocol mismatch") {
				t.Fatalf("mismatched hello not refused by name: %+v", reply)
			}
			if _, err := fr.ReadFrame(); !errors.Is(err, io.EOF) {
				t.Fatalf("server kept the mismatched connection open: %v", err)
			}
		})
	}
}

// TestClientRefusesNonHelloAckReply pins the client half of the era
// check: a daemon that answers the hello with anything but the frame
// layer's hello — a gob-era ack, or a well-formed serve frame of the wrong
// kind — fails the
// client permanently with a message naming the mismatch, both at dial and
// when the mismatch appears behind a redial mid-session; the client does
// not keep redialing a daemon that will never accept it.
func TestClientRefusesNonHelloAckReply(t *testing.T) {
	// fakeDaemon answers the first frame it reads with reply, then hangs up.
	fakeDaemon := func(reply func(*frame.Writer) error) net.Conn {
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			if _, err := frame.NewReader(srv).ReadFrame(); err != nil {
				return
			}
			_ = reply(frame.NewWriter(srv))
		}()
		return cli
	}
	gobAck := func(fw *frame.Writer) error {
		return v3Frame(fw, &v3Envelope{HelloAck: &v3HelloAckMsg{Version: 3, Algorithm: "Smart EXP3"}})
	}
	pong := func(fw *frame.Writer) error {
		return fw.WriteFrame((&message{tag: tagPong, pong: servePongMsg{Seq: 1}}).appendTo(nil))
	}
	opts := ClientOptions{FrameTimeout: 10 * time.Second, BackoffBase: time.Millisecond}

	t.Run("gob-v3-ack-at-dial", func(t *testing.T) {
		dials := 0
		_, err := NewClient(func() (net.Conn, error) {
			dials++
			return fakeDaemon(gobAck), nil
		}, opts)
		if err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
			t.Fatalf("gob-era daemon accepted or refused without naming the mismatch: %v", err)
		}
		if dials != 1 {
			t.Fatalf("dialed %d times; a protocol mismatch must not be retried", dials)
		}
	})

	t.Run("pong-after-redial", func(t *testing.T) {
		_, addr := startServer(t, Config{})
		dials := 0
		c, err := NewClient(func() (net.Conn, error) {
			dials++
			if dials == 1 {
				return net.Dial("tcp", addr)
			}
			return fakeDaemon(pong), nil
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.SelectSlot(1, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		c.conn.Close() // cut: the next operation redials into the fake daemon
		_, _, err = c.SelectSlot(1, []int{1, 2})
		if err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
			t.Fatalf("non-hello-ack reply after redial: got %v, want a protocol mismatch", err)
		}
		before := dials
		if _, _, again := c.SelectSlot(1, []int{1, 2}); again != err {
			t.Fatalf("failure is not permanent: second select returned %v", again)
		}
		if dials != before {
			t.Fatalf("client redialed %d more times after a permanent failure", dials-before)
		}
	})
}

// TestServerSurvivesMalformedClient pins robustness: garbage after the
// handshake kills that connection only; the next client is served.
func TestServerSurvivesMalformedClient(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	c := dialTest(t, addr)
	if _, _, err := c.SelectSlot(1, []int{1, 2}); err != nil {
		t.Fatalf("server unusable after a malformed client: %v", err)
	}
}

// TestServerDropsSilentClient pins that the server's read deadline still
// fires under lazy arming: a client that handshakes, makes 50 Selects and
// falls silent is disconnected no sooner than FrameTimeout after its last
// frame, and well within a few seconds.
func TestServerDropsSilentClient(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, addr := startServerOpts(t, Config{}, ServerOptions{FrameTimeout: timeout})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(dialOnce(raw), ClientOptions{FrameTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var last time.Time
	for i := 0; i < 50; i++ {
		last = time.Now()
		if _, _, err := c.SelectSlot(uint64(i), []int{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = raw.Read(make([]byte, 1))
	silent := time.Since(last)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("silent client's connection: read returned %v after %v, want the server's close (EOF)", err, silent)
	}
	if silent < timeout {
		t.Fatalf("server dropped a client %v after its last frame, sooner than FrameTimeout %v", silent, timeout)
	}
}

// emfileListener fails its first Accepts the way a listener does when the
// process is out of file descriptors, then accepts for real.
type emfileListener struct {
	net.Listener
	failures int // accepts left to fail; only the accept loop touches it
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.failures > 0 {
		l.failures--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServerSurvivesTransientAcceptErrors pins that running out of file
// descriptors — which one client holding many sockets can cause — stalls
// the accept loop instead of ending it: after a run of EMFILE accepts the
// next client is served, and Serve returns only once the listener closes.
func TestServerSurvivesTransientAcceptErrors(t *testing.T) {
	store, err := NewStore(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{FrameTimeout: 30 * time.Second})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(&emfileListener{Listener: ln, failures: 3}) }()
	t.Cleanup(func() { ln.Close(); srv.Close() })

	selected := make(chan error, 1)
	go func() {
		c, err := Dial(ln.Addr().String(), ClientOptions{FrameTimeout: 30 * time.Second})
		if err != nil {
			selected <- err
			return
		}
		defer c.Close()
		_, _, err = c.SelectSlot(1, []int{10, 20, 30})
		selected <- err
	}()
	select {
	case err := <-served:
		t.Fatalf("Serve returned on a transient accept error: %v", err)
	case err := <-selected:
		if err != nil {
			t.Fatalf("Select after transient accept errors: %v", err)
		}
	}
	ln.Close()
	srv.Close()
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after close = %v, want net.ErrClosed", err)
	}
}
