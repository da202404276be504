package serve

import (
	"encoding/binary"

	"smartexp3/internal/frame"
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
		b = frame.AppendString(b, s.Err)
		b = frame.AppendBool(b, s.Redirect)
		if s.Redirect {
			b = binary.AppendUvarint(b, s.NotOwner.Epoch)
			b = frame.AppendString(b, s.NotOwner.Owner)
		}
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
		b = frame.AppendFloat(b, it.Reward)
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
		return frame.ErrTruncated
	}
	m.tag = msgTag(p[0])
	r := frame.NewPayloadReader(p[1:])
	switch m.tag {
	case tagSelect:
		m.sel.Seq = r.Uvarint()
		m.sel.Device = r.Uvarint()
		n := r.Count(1)
		arms := m.sel.Arms[:0]
		for i := 0; i < n && r.Err() == nil; i++ {
			//repolint:ignore allocfree appends into the connection's decode storage, whose capacity is retained across frames
			arms = append(arms, r.Int())
		}
		m.sel.Arms = arms
	case tagSelected:
		s := &m.selected
		s.Seq = r.Uvarint()
		s.Arm = r.Int()
		s.Slot = r.Uvarint()
		s.Err = r.Text()
		s.Redirect = r.Bool()
		s.NotOwner.Epoch, s.NotOwner.Owner = 0, ""
		if s.Redirect {
			s.NotOwner.Epoch = r.Uvarint()
			s.NotOwner.Owner = r.Text()
		}
	case tagFeedback:
		m.feedback.Items = readItems(&r, m.feedback.Items)
	case tagRejected:
		m.rejected.Epoch = r.Uvarint()
		m.rejected.Items = readItems(&r, m.rejected.Items)
	case tagRelease:
		n := r.Count(1)
		ids := m.release.Devices[:0]
		for i := 0; i < n && r.Err() == nil; i++ {
			//repolint:ignore allocfree appends into the connection's decode storage, whose capacity is retained across frames
			ids = append(ids, r.Uvarint())
		}
		m.release.Devices = ids
	case tagPing:
		m.ping.Seq = r.Uvarint()
	case tagPong:
		m.pong.Seq = r.Uvarint()
	default:
		return frame.ErrTag
	}
	return r.Finish()
}

// readItems reads a feedback item list into dst's storage.
//
//repolint:allocfree via TestWireCodecWarmAllocs
func readItems(r *frame.PayloadReader, dst []FeedbackItem) []FeedbackItem {
	n := r.Count(feedbackItemMinBytes)
	dst = dst[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		device, arm, slot := r.Uvarint(), r.Int(), r.Uvarint()
		//repolint:ignore allocfree appends into the connection's decode storage, whose capacity is retained across frames
		dst = append(dst, FeedbackItem{Device: device, Arm: arm, Slot: slot, Reward: r.Float()})
	}
	return dst
}
