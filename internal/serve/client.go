package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"smartexp3/internal/frame"
)

// Client tuning that no caller varies.
const (
	// feedbackBatch is the unwritten-report count that triggers an eager
	// flush. Feedback is also sent ahead of every Select, Release, Ping
	// and Close, in the same write, so the buffer never outlives the
	// traffic that should observe it.
	feedbackBatch = 256
	// maxBufferedFeedback bounds the reports held while the daemon is
	// unreachable (the overload guard); beyond it the oldest are dropped
	// and counted in DroppedFeedback. On a live connection nothing is
	// dropped: when this many reports are queued, written or not, the
	// client confirms them with a Ping.
	maxBufferedFeedback = 4096
)

// ClientOptions tunes a client connection and its recovery behavior.
type ClientOptions struct {
	// FrameTimeout bounds each frame read and write: one times out no
	// sooner than FrameTimeout after it starts, and at most 1/16 later.
	// Zero means frame.DefaultTimeout (2 minutes), negative disables
	// (synchronous in-memory pipes in tests).
	FrameTimeout time.Duration

	// MaxAttempts bounds the transport tries (initial + redials) one
	// operation makes before giving up; zero means 8.
	MaxAttempts int
	// BackoffBase is the delay before the first redial; it doubles per
	// attempt up to BackoffMax, jittered to [d/2, d) so clients of a
	// restarting daemon do not reconnect in lockstep. Zero means 20ms.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay; zero means 2 seconds.
	BackoffMax time.Duration

	// OnRejected, when set, receives feedback items the daemon bounced in
	// a Rejected frame because it no longer owns their devices (a fleet
	// migration moved them), along with the table epoch the rejection
	// quoted. The callback runs synchronously inside the client's receive
	// loop; the items slice is valid only for the duration of the call.
	// Nil discards bounced items.
	OnRejected func(epoch uint64, items []FeedbackItem)

	// Metrics, when set, receives the client's resilience counters —
	// typically a NewClientMetrics set registered on an obsv.Registry,
	// shared across redials of one logical client. Nil means a private
	// unregistered set; the Reconnects/DroppedFeedback accessors read
	// whichever set is in use.
	Metrics *ClientMetrics
}

func (o ClientOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 8
	}
	return o.MaxAttempts
}

func (o ClientOptions) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return 20 * time.Millisecond
	}
	return o.BackoffBase
}

func (o ClientOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return 2 * time.Second
	}
	return o.BackoffMax
}

// RequestError is a request-level rejection (a malformed arm set, say):
// the daemon answered, the session remains usable, and nothing is retried.
// Every other error a client method returns is transport trouble.
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

// Client is one synchronous session against a serve daemon. It buffers
// feedback and sends it as one frame queued ahead of the next request, in
// the same write, so the hot loop costs one write and one round trip per
// Select and nothing per Feedback.
//
// The client self-heals: a transport failure (cut, stall past the frame
// timeout, corrupted frame) tears the connection down and the operation
// retries over a fresh one with capped exponential backoff — up to
// MaxAttempts tries. Recovery is safe because both directions are
// idempotent at the store: a re-Select after a lost response returns the
// same arm and slot, and feedback written-but-unconfirmed at the cut is
// resent carrying its slot, which the store applies at most once. A chaos
// session is therefore decision-identical to a clean one. Only handshake
// rejections (wrong protocol era, wrong daemon) poison the client
// permanently.
//
// Not safe for concurrent use — one goroutine per client, the same
// discipline as the cluster session layer.
type Client struct {
	opts      ClientOptions
	dial      func() (net.Conn, error) // the first dial and every redial
	conn      *frame.Conn
	algorithm string

	in   message // every reply decodes here; list storage is reused
	fbuf []byte  // feedback-frame encode scratch, reused
	wbuf []byte  // request-frame encode scratch, reused

	batch []FeedbackItem // buffered reports not yet written
	sent  []FeedbackItem // written but unconfirmed by a response barrier

	seq     uint64
	pingSeq uint64

	connected bool
	closed    bool
	permErr   error // handshake-level failure; the client is dead after one

	rng *rand.Rand     // backoff jitter
	m   *ClientMetrics // never nil; from opts.Metrics or a private set
}

// Dial connects to the daemon at addr over TCP and handshakes; the client
// redials addr after transient transport failures.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	return NewClient(func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, frame.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
		}
		return conn, nil
	}, opts)
}

// NewClient connects through dial and handshakes; every redial after a
// transient transport failure goes through dial too (tests hand it one end
// of a pipe). The client owns each connection dial returns.
func NewClient(dial func() (net.Conn, error), opts ClientOptions) (*Client, error) {
	c := &Client{opts: opts, dial: dial, m: opts.Metrics}
	if c.m == nil {
		c.m = newClientMetrics()
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	if err := c.handshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Algorithm names the algorithm the daemon serves, as reported at
// handshake.
func (c *Client) Algorithm() string { return c.algorithm }

// Reconnects returns how many times the client re-established its
// connection after the initial dial.
func (c *Client) Reconnects() uint64 { return c.m.Reconnects.Value() }

// DroppedFeedback returns how many buffered reports the overload guard
// discarded because the daemon stayed unreachable past the buffer bound.
func (c *Client) DroppedFeedback() uint64 { return c.m.DroppedFeedback.Value() }

// handshake installs conn as the client's transport and runs the hello
// exchange over it. Rejections are permanent: a daemon from the wrong
// protocol era will reject every future attempt too.
func (c *Client) handshake(conn net.Conn) error {
	c.conn = frame.NewConn(conn, 32<<10, frame.Timeout(c.opts.FrameTimeout), true)
	ack, err := c.conn.Greet(hello)
	switch {
	case errors.Is(err, frame.ErrHandshake):
		return c.permanent(fmt.Errorf("serve: %w", err))
	case err != nil:
		return err
	}
	c.connected = true
	c.algorithm = ack.Info
	return nil
}

func (c *Client) permanent(err error) error {
	if c.permErr == nil {
		c.permErr = err
	}
	return c.permErr
}

// send writes one operation's frames under a single write deadline and in
// one flush — the unwritten feedback batch first when withFeedback is set,
// then m unless nil. Feedback items move to the unconfirmed queue as they
// are written; a failure anywhere before the next response barrier
// requeues them (dropConn).
func (c *Client) send(withFeedback bool, m *message) error {
	c.fbuf, c.wbuf = c.fbuf[:0], c.wbuf[:0]
	if withFeedback && len(c.batch) > 0 {
		n := len(c.sent)
		c.sent = append(c.sent, c.batch...)
		c.batch = c.batch[:0]
		fb := message{tag: tagFeedback, feedback: feedbackBatchMsg{Items: c.sent[n:]}}
		c.fbuf = fb.appendTo(c.fbuf)
	}
	if m != nil {
		c.wbuf = m.appendTo(c.wbuf)
	}
	if len(c.fbuf) == 0 && len(c.wbuf) == 0 {
		return nil
	}
	return c.conn.WriteFrames(c.fbuf, c.wbuf)
}

// recv reads the next frame into c.in.
func (c *Client) recv() error {
	p, err := c.conn.ReadFrame()
	if err != nil {
		return err
	}
	if err := c.in.decode(p); err != nil {
		return fmt.Errorf("serve: decode reply: %w", err)
	}
	return nil
}

func (c *Client) usable() error {
	switch {
	case c.permErr != nil:
		return c.permErr
	case c.closed:
		return errors.New("serve: client closed")
	}
	return nil
}

// dropConn tears the connection down after a transport failure and
// requeues written-but-unconfirmed feedback ahead of the unwritten batch:
// the daemon may or may not have consumed those frames, and the slot each
// item carries makes resending the safe default.
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.connected = false
	if len(c.sent) > 0 {
		c.m.FeedbackResent.Add(uint64(len(c.sent)))
		c.batch = append(c.sent, c.batch...)
		c.sent = nil
	}
	c.trimFeedback()
}

// ensureConn returns with a live handshaken connection or an error for
// this attempt.
func (c *Client) ensureConn() error {
	if c.connected {
		return nil
	}
	if c.permErr != nil {
		return c.permErr
	}
	c.m.Redials.Inc()
	conn, err := c.dial()
	if err != nil {
		return err
	}
	if err := c.handshake(conn); err != nil {
		conn.Close()
		return err
	}
	c.m.Reconnects.Inc()
	return nil
}

// backoff sleeps before redial attempt try (1-based), doubling from
// BackoffBase and capping at BackoffMax, jittered to [d/2, d).
func (c *Client) backoff(try int) {
	d := c.opts.backoffBase() << uint(try-1)
	if max := c.opts.backoffMax(); d > max || d <= 0 {
		d = max
	}
	if c.rng == nil {
		// Backoff jitter is deliberately wall-clock-seeded: it must differ
		// across client processes to de-synchronize reconnect storms, and it
		// never reaches a decision, a seed, or a snapshot.
		//repolint:ignore seedpurity intentional nondeterminism: jitter only spreads redial timing and never feeds decisions or state
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	time.Sleep(d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1)))
}

// attempt runs op against a live connection, redialing with backoff after
// transient failures, up to MaxAttempts tries. A *RequestError or
// *NotOwnerError returns immediately (the session is fine — the second is
// an answer, not a failure: ask a different peer); a permanent error
// latches; anything else tears the connection down and retries.
func (c *Client) attempt(op func() error) error {
	attempts := c.opts.maxAttempts()
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.backoff(try)
		}
		if err := c.ensureConn(); err != nil {
			if c.permErr != nil {
				return c.permErr
			}
			lastErr = err
			continue
		}
		err := op()
		if err == nil {
			return nil
		}
		var req *RequestError
		var no *NotOwnerError
		if errors.As(err, &req) || errors.As(err, &no) {
			return err
		}
		c.dropConn()
		lastErr = err
	}
	return fmt.Errorf("serve: daemon unreachable after %d attempts: %w", attempts, lastErr)
}

// writeFeedback writes the unwritten batch as one frame on its own. The
// items stay in sent until a response barrier (a Selected or Pong on the
// same connection) proves the daemon consumed the stream up to them; a
// disconnect before that requeues them.
func (c *Client) writeFeedback() error { return c.send(true, nil) }

// trimFeedback enforces the overload guard on a disconnected client, whose
// reports all sit in batch (dropConn requeued the unconfirmed ones): past
// the bound, the oldest are dropped and counted.
func (c *Client) trimFeedback() {
	over := len(c.batch) - maxBufferedFeedback
	if over <= 0 {
		return
	}
	kept := copy(c.batch, c.batch[over:])
	c.batch = c.batch[:kept]
	c.m.DroppedFeedback.Add(uint64(over))
}

// SelectSlot asks which arm device should use next, sending buffered
// feedback ahead of the request in the same write. It returns the slot the
// store named for this selection alongside the arm; the caller quotes that
// slot back through FeedbackSlot or EnqueueFeedback (possibly through a
// different peer's connection after a fleet migration), so a resent report
// cannot double-count. arms must be strictly ascending. A request-level rejection (bad arm set) returns a
// *RequestError and a daemon that no longer owns the device answers with
// *NotOwnerError; both leave the session usable and burn no transport
// retries. Transport failures reconnect and retry transparently — the
// store's slot-idempotent Select makes the retry return the same arm and
// slot — and only after MaxAttempts does the client give up.
func (c *Client) SelectSlot(device uint64, arms []int) (int, uint64, error) {
	if err := c.usable(); err != nil {
		return -1, 0, err
	}
	var arm int
	var slot uint64
	err := c.attempt(func() error {
		c.seq++
		req := message{tag: tagSelect, sel: selectMsg{Seq: c.seq, Device: device, Arms: arms}}
		if err := c.send(true, &req); err != nil {
			return err
		}
		for {
			if err := c.recv(); err != nil {
				return err
			}
			switch c.in.tag {
			case tagSelected:
				sel := &c.in.selected
				if sel.Seq != c.seq {
					return fmt.Errorf("response seq %d, want %d", sel.Seq, c.seq)
				}
				c.sent = c.sent[:0] // barrier: the daemon consumed everything before this reply
				if sel.Redirect {
					return &NotOwnerError{Epoch: sel.NotOwner.Epoch, Owner: sel.NotOwner.Owner}
				}
				if sel.Err != "" {
					return &RequestError{Msg: "serve: " + sel.Err}
				}
				arm = sel.Arm
				slot = sel.Slot
				return nil
			case tagRejected:
				c.handleRejected(&c.in.rejected)
				continue // bounced feedback; the select response follows
			case tagPong:
				continue // late keepalive answer; the select response follows
			default:
				return errors.New("unexpected frame awaiting selection")
			}
		}
	})
	if err != nil {
		return -1, 0, err
	}
	return arm, slot, nil
}

// handleRejected forwards a bounced-feedback frame to the OnRejected
// callback. Without one the items are discarded: the daemon applied
// nothing for them, and a plain single-store client has nowhere better
// to send them.
func (c *Client) handleRejected(msg *feedbackRejectedMsg) {
	if c.opts.OnRejected != nil {
		c.opts.OnRejected(msg.Epoch, msg.Items)
	}
}

// FeedbackSlot buffers one reward report quoting the slot SelectSlot
// returned for it; the wire sees it at the next flush (at latest, before
// the next select on this connection, which is what makes
// select-after-feedback ordering hold without a round trip per report).
// FeedbackSlot never blocks on a broken transport: reports queue (bounded by
// maxBufferedFeedback) and resend after the reconnect.
func (c *Client) FeedbackSlot(device uint64, arm int, slot uint64, reward float64) error {
	if err := c.usable(); err != nil {
		return err
	}
	c.batch = append(c.batch, FeedbackItem{Device: device, Arm: arm, Slot: slot, Reward: reward})
	c.maybeFlushFeedback()
	return nil
}

// EnqueueFeedback buffers already-formed reports — the re-delivery path
// for items another peer bounced in a Rejected frame. The slots each item
// carries keep the hand-off at-most-once: if the bouncing peer's client
// also resends the same items through its unconfirmed queue, whichever
// copy loses the race is slot-dropped by the store.
func (c *Client) EnqueueFeedback(items []FeedbackItem) error {
	if err := c.usable(); err != nil {
		return err
	}
	c.batch = append(c.batch, items...)
	c.maybeFlushFeedback()
	return nil
}

// maybeFlushFeedback is the eager flush shared by the feedback entry
// points. On a live connection it writes the unwritten batch once it
// reaches feedbackBatch, or, once maxBufferedFeedback reports are queued
// written or not, writes it under a Ping barrier that empties the
// unconfirmed queue. Disconnected, it applies the overload guard.
// Best-effort: a transport failure just drops the connection and the
// reports ride along on the next operation.
func (c *Client) maybeFlushFeedback() {
	if !c.connected {
		c.trimFeedback()
		return
	}
	var err error
	switch {
	case len(c.batch)+len(c.sent) >= maxBufferedFeedback:
		err = c.ping()
	case len(c.batch) >= feedbackBatch:
		err = c.writeFeedback()
	}
	if err != nil {
		c.dropConn()
	}
}

// Flush writes buffered feedback to the daemon, reconnecting as needed.
// Delivery is confirmed only by the next response barrier (a select or a
// Ping).
func (c *Client) Flush() error {
	if err := c.usable(); err != nil {
		return err
	}
	if len(c.batch) == 0 {
		return nil
	}
	return c.attempt(c.writeFeedback)
}

// Release retires the given device sessions, sending buffered feedback
// ahead of the request in the same write.
func (c *Client) Release(devices ...uint64) error {
	if err := c.usable(); err != nil {
		return err
	}
	return c.attempt(func() error {
		req := message{tag: tagRelease, release: releaseMsg{Devices: devices}}
		return c.send(true, &req)
	})
}

// Ping sends buffered feedback and a keepalive in one write and awaits the
// pong, proving the daemon is alive and resetting its idle timer.
func (c *Client) Ping() error {
	if err := c.usable(); err != nil {
		return err
	}
	return c.attempt(c.ping)
}

// ping is one Ping attempt on the current connection.
func (c *Client) ping() error {
	c.pingSeq++
	req := message{tag: tagPing, ping: servePingMsg{Seq: c.pingSeq}}
	if err := c.send(true, &req); err != nil {
		return err
	}
	for {
		if err := c.recv(); err != nil {
			return err
		}
		if c.in.tag == tagRejected {
			c.handleRejected(&c.in.rejected)
			continue // bounced feedback; the pong follows
		}
		if c.in.tag != tagPong || c.in.pong.Seq != c.pingSeq {
			return errors.New("unexpected frame awaiting pong")
		}
		c.sent = c.sent[:0] // barrier, as for SelectSlot
		return nil
	}
}

// Close makes a best-effort final feedback flush and closes the
// connection. Close is idempotent, including after a permanent failure:
// repeated calls return nil.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var flushErr error
	if c.permErr == nil && c.connected {
		flushErr = c.writeFeedback()
	}
	var closeErr error
	if c.conn != nil {
		closeErr = c.conn.Close()
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
