package serve

import (
	"encoding/binary"
	"errors"
	"math"
)

// Decode failures are static values so a rejected payload never formats on
// the decode path; the connection loops wrap them with context on their
// (cold) error returns.
var (
	errTruncated = errors.New("serve: payload truncated")
	errVarint    = errors.New("serve: malformed or non-canonical varint")
	errCount     = errors.New("serve: count exceeds the payload's remaining bytes")
	errIntRange  = errors.New("serve: integer overflows int")
	errPresence  = errors.New("serve: presence byte is neither 0 nor 1")
	errTag       = errors.New("serve: unknown message tag")
	errTrailing  = errors.New("serve: trailing bytes after the message")
)

// feedbackItemMinBytes is the smallest encoding of one FeedbackItem: one
// byte each for device, arm and slot, eight for the reward bits. Item
// counts are bounded by it before any storage is sized.
const feedbackItemMinBytes = 3 + 8

// appendTo appends m's payload — tag byte, then the live message's fields
// (see wire.go for the layout) — to b and returns the extended slice. The
// connections encode into retained scratch, so warm encoding allocates
// nothing.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (m *message) appendTo(b []byte) []byte {
	//repolint:ignore allocfree appends into the connection's encode scratch, whose capacity is retained across frames
	b = append(b, byte(m.tag))
	switch m.tag {
	case tagSelect:
		b = binary.AppendUvarint(b, m.sel.Seq)
		b = binary.AppendUvarint(b, m.sel.Device)
		b = binary.AppendUvarint(b, uint64(len(m.sel.Arms)))
		for _, arm := range m.sel.Arms {
			b = binary.AppendVarint(b, int64(arm))
		}
	case tagSelected:
		s := &m.selected
		b = binary.AppendUvarint(b, s.Seq)
		b = binary.AppendVarint(b, int64(s.Arm))
		b = binary.AppendUvarint(b, s.Slot)
		b = appendString(b, s.Err)
		if !s.Redirect {
			return binary.AppendUvarint(b, 0)
		}
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, s.NotOwner.Epoch)
		b = appendString(b, s.NotOwner.Owner)
	case tagFeedback:
		b = appendItems(b, m.feedback.Items)
	case tagRejected:
		b = binary.AppendUvarint(b, m.rejected.Epoch)
		b = appendItems(b, m.rejected.Items)
	case tagRelease:
		b = binary.AppendUvarint(b, uint64(len(m.release.Devices)))
		for _, id := range m.release.Devices {
			b = binary.AppendUvarint(b, id)
		}
	case tagPing:
		b = binary.AppendUvarint(b, m.ping.Seq)
	case tagPong:
		b = binary.AppendUvarint(b, m.pong.Seq)
	}
	return b
}

// appendString appends s as a uvarint length and its bytes.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	//repolint:ignore allocfree appends into the connection's encode scratch, whose capacity is retained across frames
	return append(b, s...)
}

// appendItems appends a feedback item list: count, then each item's
// device, arm, slot and reward bits.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func appendItems(b []byte, items []FeedbackItem) []byte {
	b = binary.AppendUvarint(b, uint64(len(items)))
	for i := range items {
		it := &items[i]
		b = binary.AppendUvarint(b, it.Device)
		b = binary.AppendVarint(b, int64(it.Arm))
		b = binary.AppendUvarint(b, it.Slot)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(it.Reward))
	}
	return b
}

// decode parses payload p into m, reusing m's list storage, and reports
// whether p is a well-formed payload. Every count is checked against the
// bytes left before storage is sized, varints must be canonical, trailing
// bytes are an error, and no input panics — so a payload decodes exactly
// when re-encoding the result reproduces it. On error m's contents are
// unspecified (but its lists stay bounded by len(p)).
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (m *message) decode(p []byte) error {
	if len(p) == 0 {
		m.tag = 0
		return errTruncated
	}
	m.tag = msgTag(p[0])
	var r payloadReader
	r.b = p[1:]
	switch m.tag {
	case tagSelect:
		m.sel.Seq = r.uvarint()
		m.sel.Device = r.uvarint()
		n := r.count(1)
		arms := m.sel.Arms[:0]
		for i := 0; i < n && r.err == nil; i++ {
			//repolint:ignore allocfree appends into the connection's decode storage, whose capacity is retained across frames
			arms = append(arms, r.int())
		}
		m.sel.Arms = arms
	case tagSelected:
		s := &m.selected
		s.Seq = r.uvarint()
		s.Arm = r.int()
		s.Slot = r.uvarint()
		s.Err = r.string()
		s.Redirect = r.presence()
		s.NotOwner.Epoch, s.NotOwner.Owner = 0, ""
		if s.Redirect {
			s.NotOwner.Epoch = r.uvarint()
			s.NotOwner.Owner = r.string()
		}
	case tagFeedback:
		m.feedback.Items = r.items(m.feedback.Items)
	case tagRejected:
		m.rejected.Epoch = r.uvarint()
		m.rejected.Items = r.items(m.rejected.Items)
	case tagRelease:
		n := r.count(1)
		ids := m.release.Devices[:0]
		for i := 0; i < n && r.err == nil; i++ {
			//repolint:ignore allocfree appends into the connection's decode storage, whose capacity is retained across frames
			ids = append(ids, r.uvarint())
		}
		m.release.Devices = ids
	case tagPing:
		m.ping.Seq = r.uvarint()
	case tagPong:
		m.pong.Seq = r.uvarint()
	default:
		return errTag
	}
	if r.err == nil && len(r.b) != 0 {
		return errTrailing
	}
	return r.err
}

// payloadReader walks one payload. The first failure sticks: later reads
// return zero values and consume nothing, so decode checks once at the end.
type payloadReader struct {
	b   []byte
	err error
}

//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// uvarint reads a canonical uvarint: an overlong encoding (a final zero
// byte after a continuation) is rejected so that decoding stays the exact
// inverse of binary.AppendUvarint.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errTruncated)
		return 0
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zigzag varint that must fit an int.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) int() int {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if v < math.MinInt || v > math.MaxInt {
		r.fail(errIntRange)
		return 0
	}
	return int(v)
}

// count reads a list or string length and bounds it by the bytes left:
// each element takes at least minBytes, so a larger count cannot be
// well-formed and is refused before anything is sized for it.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail(errCount)
		return 0
	}
	return int(n)
}

// presence reads an optional part's 0/1 marker.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) presence() bool {
	switch r.uvarint() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errPresence)
	return false
}

// string reads a length-prefixed string. Warm frames carry only empty
// strings, whose conversion does not allocate.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) string() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	//repolint:ignore allocfree non-empty strings (errors, redirects, the handshake's algorithm name) occur only on cold paths
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// items reads a feedback item list into dst's storage.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) items(dst []FeedbackItem) []FeedbackItem {
	n := r.count(feedbackItemMinBytes)
	dst = dst[:0]
	for i := 0; i < n && r.err == nil; i++ {
		device, arm, slot := r.uvarint(), r.int(), r.uvarint()
		//repolint:ignore allocfree appends into the connection's decode storage, whose capacity is retained across frames
		dst = append(dst, FeedbackItem{Device: device, Arm: arm, Slot: slot, Reward: r.float()})
	}
	return dst
}

// float reads a reward as the 8 little-endian bytes of its IEEE-754 bits,
// so every value — NaN payloads included — crosses the wire exactly.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func (r *payloadReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}
