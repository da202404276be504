package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"smartexp3/internal/frame"
)

// A control payload's first byte tags the envelope field it carries. Zero
// is no message, so an envelope with nothing set encodes to a payload
// every peer refuses.
const (
	tagTableGet byte = iota + 1
	tagTableRes
	tagCut
	tagState
	tagOffer
	tagOfferAck
	tagCommit
	tagAbort
	tagCheckpoint
	tagDone
)

// errStripeBits refuses a table whose stripe bits do not fit their uint8.
var errStripeBits = errors.New("fleet: table stripe bits exceed 255")

// appendTo appends env's payload — the tag of its first set field, then
// that message's fields (see wire.go for the layout) — to b.
func (env *fleetEnvelope) appendTo(b []byte) []byte {
	switch {
	case env.TableGet != nil:
		return append(b, tagTableGet)
	case env.TableRes != nil:
		return appendTable(append(b, tagTableRes), env.TableRes.Table)
	case env.Cut != nil:
		m := env.Cut
		b = frame.AppendInt(append(b, tagCut), m.Stripe)
		b = binary.AppendUvarint(b, m.Lo)
		b = binary.AppendUvarint(b, m.Hi)
		b = frame.AppendString(b, m.To)
		b = frame.AppendString(b, m.ToControl)
		return binary.AppendUvarint(b, m.NewEpoch)
	case env.State != nil:
		m := env.State
		b = frame.AppendInt(append(b, tagState), m.Stripe)
		b = frame.AppendInt(b, m.Devices)
		b = frame.AppendString(b, m.Err)
		return append(b, m.Snap...)
	case env.Offer != nil:
		m := env.Offer
		b = frame.AppendInt(append(b, tagOffer), m.Stripe)
		b = binary.AppendUvarint(b, m.Lo)
		b = binary.AppendUvarint(b, m.Hi)
		b = binary.AppendUvarint(b, m.NewEpoch)
		return append(b, m.Snap...)
	case env.OfferAck != nil:
		b = frame.AppendInt(append(b, tagOfferAck), env.OfferAck.Stripe)
		return frame.AppendString(b, env.OfferAck.Err)
	case env.Commit != nil:
		return appendTable(append(b, tagCommit), env.Commit.Table)
	case env.Abort != nil:
		return append(b, tagAbort)
	case env.Checkpoint != nil:
		return append(b, tagCheckpoint)
	case env.Done != nil:
		return frame.AppendString(append(b, tagDone), env.Done.Err)
	}
	return append(b, 0)
}

// appendTable appends a presence byte and, for a table, its epoch, stripe
// bits and roster.
func appendTable(b []byte, t *Table) []byte {
	b = frame.AppendBool(b, t != nil)
	if t == nil {
		return b
	}
	b = binary.AppendUvarint(b, t.Epoch)
	b = binary.AppendUvarint(b, uint64(t.StripeBits))
	return frame.AppendList(b, t.Peers, func(b []byte, p PeerInfo) []byte {
		return frame.AppendString(frame.AppendString(frame.AppendString(b, p.ID), p.Addr), p.Control)
	})
}

// decodeEnvelope decodes one control payload. It is the exact inverse of
// appendTo: unknown tags, non-canonical varints, bad presence bytes,
// stripe bits above 255 and trailing bytes are refused, and every count is
// bounded by the bytes left before anything is sized for it. Nothing in
// the result aliases p, so a decoded snapshot outlives the frame buffer.
func decodeEnvelope(p []byte) (*fleetEnvelope, error) {
	if len(p) == 0 {
		return nil, frame.ErrTruncated
	}
	r := frame.NewPayloadReader(p[1:])
	env := new(fleetEnvelope)
	switch p[0] {
	case tagTableGet:
		env.TableGet = &tableGetMsg{}
	case tagTableRes:
		env.TableRes = &tableResMsg{Table: readTable(&r)}
	case tagCut:
		env.Cut = &cutMsg{Stripe: r.Int(), Lo: r.Uvarint(), Hi: r.Uvarint(),
			To: r.Text(), ToControl: r.Text(), NewEpoch: r.Uvarint()}
	case tagState:
		env.State = &stateMsg{Stripe: r.Int(), Devices: r.Int(), Err: r.Text()}
		env.State.Snap = readRest(&r)
	case tagOffer:
		env.Offer = &offerMsg{Stripe: r.Int(), Lo: r.Uvarint(), Hi: r.Uvarint(), NewEpoch: r.Uvarint()}
		env.Offer.Snap = readRest(&r)
	case tagOfferAck:
		env.OfferAck = &offerAckMsg{Stripe: r.Int(), Err: r.Text()}
	case tagCommit:
		env.Commit = &commitMsg{Table: readTable(&r)}
	case tagAbort:
		env.Abort = &abortMsg{}
	case tagCheckpoint:
		env.Checkpoint = &checkpointMsg{}
	case tagDone:
		env.Done = &doneMsg{Err: r.Text()}
	default:
		return nil, frame.ErrTag
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return env, nil
}

// readTable reads appendTable's layout; an absent table is nil.
func readTable(r *frame.PayloadReader) *Table {
	if !r.Bool() {
		return nil
	}
	t := &Table{Epoch: r.Uvarint()}
	bits := r.Uvarint()
	if bits > 255 {
		r.Fail(errStripeBits)
	}
	t.StripeBits = uint8(bits)
	t.Peers = frame.ReadList(r, nil, 3, func(r *frame.PayloadReader) PeerInfo { // three strings
		return PeerInfo{ID: r.Text(), Addr: r.Text(), Control: r.Text()}
	})
	return t
}

// readRest copies out the unread bytes (a snapshot's encoding), nil
// when none are left.
func readRest(r *frame.PayloadReader) []byte {
	if r.Len() == 0 {
		return nil
	}
	snap := bytes.Clone(r.Rest())
	r.Skip(len(snap))
	return snap
}

// readEnvelope reads the next frame from c and decodes it. The frame
// layer's errors pass through unchanged (a clean close between frames is
// io.EOF exactly); a payload that does not decode is a protocol breach.
func readEnvelope(c *frame.Conn) (*fleetEnvelope, error) {
	p, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	env, err := decodeEnvelope(p)
	if err != nil {
		return nil, fmt.Errorf("fleet: protocol: %w", err)
	}
	return env, nil
}
