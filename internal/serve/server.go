package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"smartexp3/internal/frame"
)

// ServerOptions tunes the transport, not the decisions.
type ServerOptions struct {
	// FrameTimeout bounds both waiting for a client frame and writing a
	// response: each times out no sooner than FrameTimeout after it
	// starts, and at most 1/16 later. A client must send something (a
	// ping suffices) within it, and a stalled reader cannot park a
	// connection goroutine past it. Zero means frame.DefaultTimeout (2
	// minutes), as on every wire; negative disables deadlines (tests with
	// synchronous pipes).
	FrameTimeout time.Duration
	// Metrics, when set, counts accepted connections and per-frame wire
	// traffic (a NewServerMetrics set registered on an obsv.Registry).
	// Nil disables connection-level instrumentation entirely.
	Metrics *ServerMetrics
}

// Server answers the serve wire protocol against one Store. One goroutine
// serves each connection; all decision state lives in the Store, so
// connections share devices safely (though one device should normally stay
// with one client).
type Server struct {
	store *Store
	opts  ServerOptions
	conns frame.Listener
}

// NewServer wraps store in a wire front end.
func NewServer(store *Store, opts ServerOptions) *Server {
	return &Server{store: store, opts: opts}
}

// Serve accepts connections until the listener closes, retrying transient
// accept failures (frame.Accept), then waits for the in-flight connection
// goroutines it spawned to drain. It always returns a non-nil error; after
// Close/listener close that error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error { return s.conns.Serve(ln, s.serveConn) }

// Close tears down every live connection. Pair it with closing the
// listener; Serve's drain then returns promptly instead of waiting out
// frame timeouts.
func (s *Server) Close() { s.conns.Close() }

// serveConn runs one connection's request loop: handshake, then frames
// until the peer closes, errors, or goes silent past the frame timeout.
// Inbound frames decode into one reused message and replies encode into
// one reused buffer, so the warm loop allocates nothing per frame.
func (s *Server) serveConn(conn net.Conn) error {
	fc := frame.NewConn(conn, 32<<10, frame.Timeout(s.opts.FrameTimeout), true)
	if m := s.opts.Metrics; m != nil {
		m.Connections.Inc()
		m.Active.Add(1)
		defer m.Active.Add(-1)
		fc.Instrument(m.FramesRead, m.BytesRead, m.FramesWritten, m.BytesWritten)
	}
	ack := hello
	ack.Info = s.store.cfg.Algorithm.String()
	if _, err := fc.Accept(ack); err != nil {
		return err
	}

	var in, out message // reused: decode storage and reply under construction
	var wbuf []byte
	send := func(m *message) error {
		wbuf = m.appendTo(wbuf[:0])
		return fc.WriteFrames(wbuf)
	}
	var rejects []FeedbackItem // retained across batches; rejections are the cold migration path
	for {
		p, err := fc.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // clean close between frames
			}
			return err
		}
		if err := in.decode(p); err != nil {
			return fmt.Errorf("serve: decode frame: %w", err)
		}
		switch in.tag {
		case tagSelect:
			// req.Arms is decode storage the next frame overwrites; Select
			// copies whatever it keeps (TestStoreSelectDoesNotRetainArms).
			req := &in.sel
			arm, slot, err := s.store.Select(req.Device, req.Arms)
			out.tag = tagSelected
			out.selected = selectedMsg{Seq: req.Seq, Arm: arm, Slot: slot}
			if err != nil {
				var no *NotOwnerError
				if errors.As(err, &no) {
					out.selected.Redirect = true
					out.selected.NotOwner = notOwnerMsg{Epoch: no.Epoch, Owner: no.Owner}
				} else {
					out.selected.Err = err.Error()
				}
			}
			if err := send(&out); err != nil {
				return err
			}
		case tagFeedback:
			var epoch uint64
			_, rejects, epoch = s.store.ApplyBatchOwned(in.feedback.Items, rejects)
			if len(rejects) > 0 {
				out.tag = tagRejected
				out.rejected = feedbackRejectedMsg{Epoch: epoch, Items: rejects}
				if err := send(&out); err != nil {
					return err
				}
			}
		case tagRelease:
			for _, id := range in.release.Devices {
				s.store.Release(id)
			}
		case tagPing:
			out.tag = tagPong
			out.pong.Seq = in.ping.Seq
			if err := send(&out); err != nil {
				return err
			}
		default:
			return fmt.Errorf("serve: unexpected frame (tag %d) from client", in.tag)
		}
	}
}
