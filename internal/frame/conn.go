package frame

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"smartexp3/internal/obsv"
)

// DefaultTimeout is what a zero timeout option means on every wire: long
// enough for a multi-megabyte result or snapshot frame on a slow link,
// short enough that a peer frozen without closing its connection is given
// up on within minutes.
const DefaultTimeout = 2 * time.Minute

// DialTimeout bounds connection establishment on every wire: the serve
// client, the cluster session's shard dials and the fleet's control dials.
const DialTimeout = 5 * time.Second

// Timeout resolves a transport timeout option the one way every option
// struct in the repository documents it: zero means DefaultTimeout,
// negative disables deadlines (returned as 0), anything else is used as
// given. A Conn enforces the result lazily: a frame operation times out
// no sooner than the timeout after it starts, and at most 1/16 later.
func Timeout(opt time.Duration) time.Duration {
	switch {
	case opt < 0:
		return 0
	case opt == 0:
		return DefaultTimeout
	}
	return opt
}

// Conn is one framed connection: the net.Conn, its buffered reader and
// writer, the frame Writer and Reader over them, and the per-frame deadline
// discipline. Every write goes through one function that arms the write
// deadline, queues the operation's frames and flushes them in one write,
// so a peer that stops draining surfaces within the timeout instead of
// parking the writer on a full TCP buffer for good.
//
// Read deadlines follow the protocol's own policy. A Conn built with
// readEach arms one before every frame read (a client or server that
// always expects traffic within the timeout); without it reads wait
// indefinitely unless the owner arms one with ArmRead while a reply is
// owed (the cluster coordinator), or never (the cluster worker, whose
// coordinator may idle between batches for any length of time).
//
// Arming is lazy. A Conn remembers the deadline it last set in each
// direction and sets a new one only when the old one is less than one
// timeout away, and then to 17/16 of the timeout from now. Every frame
// operation therefore times out no sooner than the timeout after it
// starts, and at most 1/16 later, while a busy connection makes one
// deadline call per direction every timeout/16 instead of one per frame.
//
// Writes are not safe for concurrent use, and neither are reads; one
// writer and one reader may run at once. The write deadline belongs to
// the writer. The read deadline belongs to the reader with readEach, and
// otherwise to ArmRead's callers, who must not call it concurrently (the
// cluster coordinator calls it only under its epoch lock).
type Conn struct {
	nc       net.Conn
	bw       *bufio.Writer
	w        *Writer
	r        *Reader
	timeout  time.Duration // per-frame deadline; 0 disables
	readEach bool          // arm the read deadline before every frame read

	writeDeadline time.Time // set on nc; zero when none
	readDeadline  time.Time // set on nc; zero when none
}

// NewConn frames nc. bufSize sizes the buffered reader and writer (0 means
// bufio's default); timeout is the per-frame deadline, already resolved
// by Timeout; readEach arms it before every read as well as every write.
func NewConn(nc net.Conn, bufSize int, timeout time.Duration, readEach bool) *Conn {
	bw := bufio.NewWriterSize(nc, bufSize)
	return &Conn{
		nc:       nc,
		bw:       bw,
		w:        NewWriter(bw),
		r:        NewReader(bufio.NewReaderSize(nc, bufSize)),
		timeout:  timeout,
		readEach: readEach,
	}
}

// Instrument counts frames and wire bytes in each direction (headers and
// the hello exchange included). Call it before the connection carries
// traffic. A caller that wants one total for both directions passes the
// same counters twice.
func (c *Conn) Instrument(framesRead, bytesRead, framesWritten, bytesWritten *obsv.Counter) {
	c.r.Instrument(framesRead, bytesRead)
	c.w.Instrument(framesWritten, bytesWritten)
}

// Close closes the underlying connection, unblocking any pending read or
// write.
func (c *Conn) Close() error { return c.nc.Close() }

// rearm returns the deadline to set before an operation that starts now,
// or the zero time when armed, the deadline already set (zero, long past,
// when none is), is still at least one timeout away.
func (c *Conn) rearm(armed time.Time) time.Time {
	now := time.Now()
	if armed.Sub(now) >= c.timeout {
		return time.Time{}
	}
	return now.Add(c.timeout + c.timeout/16)
}

// WriteFrames is the one path a frame takes to the wire: arm the write
// deadline (lazily, see Conn), queue each non-empty payload as one frame,
// and flush them together — one deadline and one write for the whole
// operation.
func (c *Conn) WriteFrames(payloads ...[]byte) error {
	if c.timeout > 0 {
		if d := c.rearm(c.writeDeadline); !d.IsZero() {
			if err := c.nc.SetWriteDeadline(d); err != nil {
				return err
			}
			c.writeDeadline = d
		}
	}
	for _, p := range payloads {
		if len(p) > 0 {
			if err := c.w.WriteFrame(p); err != nil {
				return err
			}
		}
	}
	return c.bw.Flush()
}

// ArmRead arms the read deadline (owed: a reply is due within the
// timeout, lazily as Conn describes) or clears it, with a call only when
// one is set. Connections built with readEach arm it before every read on
// their own.
func (c *Conn) ArmRead(owed bool) error {
	if c.timeout <= 0 {
		return nil
	}
	var d time.Time
	if owed {
		if d = c.rearm(c.readDeadline); d.IsZero() {
			return nil
		}
	} else if c.readDeadline.IsZero() {
		return nil
	}
	if err := c.nc.SetReadDeadline(d); err != nil {
		return err
	}
	c.readDeadline = d
	return nil
}

// ReadFrame reads one frame. The payload is valid until the next read; a
// clean close between frames is io.EOF exactly, and any failure latches
// (see Reader).
func (c *Conn) ReadFrame() ([]byte, error) {
	if c.readEach {
		if err := c.ArmRead(true); err != nil {
			return nil, err
		}
	}
	return c.r.ReadFrame()
}

// Hello is the first frame each side of every session sends: the dialer's
// hello, then the acceptor's reply. Proto names the protocol ("cluster",
// "serve", "fleet") and Version its revision; both must match exactly.
// Info is one protocol-defined string: the algorithm a serve daemon
// answers with, the peer id a fleet hello carries. Err, in a reply only,
// refuses the session.
type Hello struct {
	Proto   string
	Version int
	Info    string
	Err     string
}

// ErrHandshake marks a deterministic handshake failure: the peer refused
// the hello, answered with something that is not a hello, or speaks
// another protocol or version. Redialing the same peer cannot end
// differently, so callers treat it as permanent; any other handshake
// error is transport trouble.
var ErrHandshake = errors.New("frame: handshake failed")

// helloMagic is a hello payload's first field, so the first frame of a
// session is recognized as a hello, not parsed as some protocol's message.
const helloMagic = "frame/hello"

// errNotHello is every way a payload can fail to be a hello.
var errNotHello = errors.New("not a hello")

// Payload encodes h as a hello frame's payload: the magic and the four
// fields, NUL-separated (no field may contain a NUL).
func (h Hello) Payload() []byte {
	return []byte(strings.Join([]string{helloMagic, h.Proto, strconv.Itoa(h.Version), h.Info, h.Err}, "\x00"))
}

// ParseHello decodes a hello payload.
func ParseHello(p []byte) (Hello, error) {
	f := strings.Split(string(p), "\x00")
	if len(f) != 5 || f[0] != helloMagic {
		return Hello{}, errNotHello
	}
	v, err := strconv.Atoi(f[2])
	if err != nil {
		return Hello{}, errNotHello
	}
	return Hello{Proto: f[1], Version: v, Info: f[3], Err: f[4]}, nil
}

// Greet is the dialing half of the handshake: send h and await the reply,
// under the per-frame deadline whatever the read policy. It returns the
// acceptor's hello (its Info is the protocol's to read). A refusal, a
// reply that is not a hello, or a reply from another protocol or version
// fails with ErrHandshake, naming the protocols involved.
func (c *Conn) Greet(h Hello) (Hello, error) {
	if err := c.WriteFrames(h.Payload()); err != nil {
		return Hello{}, err
	}
	if !c.readEach {
		if err := c.ArmRead(true); err != nil {
			return Hello{}, err
		}
		defer c.ArmRead(false)
	}
	p, err := c.ReadFrame()
	if err != nil {
		return Hello{}, err
	}
	ack, err := ParseHello(p)
	switch {
	case err != nil:
		return ack, fmt.Errorf("%w: protocol mismatch: %s v%d hello answered by a frame that is not a hello", ErrHandshake, h.Proto, h.Version)
	case ack.Err != "":
		return ack, fmt.Errorf("%w: refused by a %s v%d peer: %s", ErrHandshake, ack.Proto, ack.Version, ack.Err)
	case ack.Proto != h.Proto || ack.Version != h.Version:
		return ack, fmt.Errorf("%w: protocol mismatch: %s v%d hello acknowledged by a %s v%d peer", ErrHandshake, h.Proto, h.Version, ack.Proto, ack.Version)
	}
	return ack, nil
}

// Accept is the accepting half of the handshake: read the dialer's hello
// and reply with h. A hello of another protocol or version, or a first
// frame that is not a hello, is refused with a reply naming both sides,
// and Accept fails with ErrHandshake; so does a non-empty h.Err, which
// lets the acceptor refuse for reasons of its own. It returns the dialer's
// hello.
func (c *Conn) Accept(h Hello) (Hello, error) {
	p, err := c.ReadFrame()
	if err != nil {
		return Hello{}, err
	}
	peer, err := ParseHello(p)
	if err != nil {
		h.Err = "protocol mismatch: first frame is not a hello"
	} else if peer.Proto != h.Proto || peer.Version != h.Version {
		h.Err = fmt.Sprintf("protocol mismatch: got a %s v%d hello", peer.Proto, peer.Version)
	}
	if h.Err != "" {
		_ = c.WriteFrames(h.Payload()) // best effort: the refusal is for the peer's log
		return peer, fmt.Errorf("%w: %s v%d peer refused the session: %s", ErrHandshake, h.Proto, h.Version, h.Err)
	}
	return peer, c.WriteFrames(h.Payload())
}
