package serve

import "smartexp3/internal/frame"

// The serve wire protocol rides internal/frame: a frame.Conn per
// connection (12-byte checked header, 64 MiB cap, errors that latch, one
// write deadline and one flush per client operation), opened by the shared
// hello exchange, whose reply names the algorithm the daemon serves. Its
// payloads are fixed-layout, encoded and decoded by codec.go without
// reflection. One synchronous client drives one connection: selects are
// request/response, feedback is fire-and-forget in batches queued ahead of
// the next request, and the single stream's ordering makes every Select a
// natural barrier for the feedback sent before it.
//
// A payload is one tag byte naming the message, then its fields in
// declaration order, in the frame layer's shared field encodings
// (frame.PayloadReader): unsigned integers as canonical uvarints, signed ones
// (arms) as canonical zigzag varints, rewards as the 8
// little-endian bytes of their IEEE-754 bits, strings and lists as a
// uvarint count followed by the bytes or elements, and optional parts
// behind a 0/1 presence byte. The layout is canonical: a payload decodes
// only if re-encoding the result reproduces it byte for byte.

// serveProtocolVersion is bumped whenever the serve message set or its
// encoding changes incompatibly. Handshake refuses mismatches. Version 2
// added the selection slot to selectedMsg and FeedbackItem — the dedup
// cursor that makes feedback resent across a reconnect safe to apply at
// most once. Version 3 added the fleet redirect surface: selectedMsg's
// NotOwner and the unsolicited Rejected frame for feedback bounced off a
// peer that no longer owns the device. Version 4 replaced gob with the
// fixed-layout payloads above. Version 5 moved the handshake to the frame
// layer's shared hello and added the frame header's own checksum.
const serveProtocolVersion = 5

// hello is this protocol's side of the shared handshake; a daemon's reply
// carries its algorithm in Info.
var hello = frame.Hello{Proto: "serve", Version: serveProtocolVersion}

// msgTag is a payload's first byte: which message the rest encodes.
type msgTag byte

// Tags 1 and 2 carried the hello pair before version 5 and stay unused.
const (
	tagSelect msgTag = 3 + iota
	tagSelected
	tagFeedback
	tagRejected
	tagRelease
	tagPing
	tagPong
)

// message is one serve payload, decoded or about to be encoded: tag names
// the live field. A connection decodes every inbound frame into the same
// message, so list storage (arms, feedback items, devices) is reused
// across frames and warm traffic allocates nothing.
type message struct {
	tag      msgTag
	sel      selectMsg
	selected selectedMsg
	feedback feedbackBatchMsg
	rejected feedbackRejectedMsg
	release  releaseMsg
	ping     servePingMsg
	pong     servePongMsg
}

// selectMsg asks which arm device Device should use next, given its
// currently reachable arm set (strictly ascending global ids).
type selectMsg struct {
	Seq    uint64
	Device uint64
	Arms   []int
}

// selectedMsg answers a selectMsg. A non-empty Err is a property of the
// request (bad arm set), not the connection: the session continues. Slot
// is the store's id for this selection; the client quotes it back in the
// matching FeedbackItem so resent feedback cannot double-count. Redirect
// marks the fleet redirect — also request-level: this peer no longer owns
// the device, ask the owner NotOwner names (refreshing any partition table
// to at least the quoted epoch first). NotOwner is meaningful only then.
type selectedMsg struct {
	Seq      uint64
	Arm      int
	Slot     uint64
	Err      string
	Redirect bool
	NotOwner notOwnerMsg
}

// notOwnerMsg is the wire shape of serve.NotOwnerError: the partition
// epoch that moved the device and the owning peer's data address (empty
// when the rejecting peer has no table and owns nothing — a booting
// fleet member).
type notOwnerMsg struct {
	Epoch uint64
	Owner string
}

// feedbackBatchMsg carries buffered reward reports. There is no reply
// for applied (or slot-dropped) reports — which is what lets a client
// stream feedback at line rate between selects; only reports aimed at a
// peer that does not own their device bounce back in a Rejected frame.
type feedbackBatchMsg struct {
	Items []FeedbackItem
}

// feedbackRejectedMsg returns feedback items the server refused because
// it does not own their devices — valid reports aimed at the wrong peer
// after a migration. It is the protocol's one unsolicited server frame:
// clients must tolerate it ahead of any awaited response. Epoch is the
// highest table epoch quoted for the rejections; the items' slots make
// re-delivery to the right owner at-most-once even if the client also
// resends them through its unconfirmed queue.
type feedbackRejectedMsg struct {
	Epoch uint64
	Items []FeedbackItem
}

// releaseMsg retires device sessions whose devices have left.
type releaseMsg struct {
	Devices []uint64
}

// servePingMsg keeps an idle connection alive under the server's frame
// timeout, mirroring the cluster session keepalive.
type servePingMsg struct {
	Seq uint64
}

// servePongMsg answers a ping.
type servePongMsg struct {
	Seq uint64
}
