package rngutil

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// SourceState is the complete generator state of a Source, in exported form
// so it can cross serialization boundaries (AppendState writes the layout
// serve's snapshots carry). Capturing and
// restoring it resumes the stream bit-for-bit: a restored source produces
// exactly the outputs the original would have produced next. The serve
// layer's snapshot/restore determinism contract rests on this — per-device
// policy randomness must survive a daemon restart unchanged.
//
// A state has one of two forms. A source fewer than 334 draws past its
// Seed is determined by its conditioned seed and the draws it has made,
// which is all it holds, and exports as those two numbers, Seed and
// Draws: the compact form, marked by a nonzero Seed, in which Vec, Tap
// and Feed are not part of the state. Any other source exports its ring
// and cursors, Vec, Tap and Feed, with Seed and Draws zero. Which form a
// source exports depends only on how many draws it has made since its
// Seed, so equal histories export equal states.
type SourceState struct {
	Vec       [rngLen]int64
	Tap, Feed int
	Seed      int64
	Draws     int
}

// ExportState copies the source's current generator state into dst and
// never writes the source. The compact form leaves dst.Vec as it was; the
// ring is copied once, straight into dst, so a destination that already
// exists, such as a record in a snapshot's device array, costs no
// temporary.
func (s *Source) ExportState(dst *SourceState) {
	if s.tap == unseeded {
		dst.Seed, dst.Draws = s.seed, seedingDraws-int(s.feed)
		dst.Tap, dst.Feed = 0, 0
		return
	}
	dst.Vec = *s.vec
	dst.Tap, dst.Feed = int(s.tap), int(s.feed)
	dst.Seed, dst.Draws = 0, 0
}

// Validate reports whether st is a state the generator can reach. A
// compact state needs a conditioned seed, in [1, 2³¹−2], and fewer than
// 334 draws. A ring state needs no draw count, both cursors inside the
// ring, and Feed exactly rngLen−rngTap slots ahead of Tap (mod rngLen), as
// seeding sets them and every draw keeps them. A state that fails it came
// from a corrupt snapshot, not from a Source; SetState would fold it into
// range and resume a stream math/rand never produces, so restore paths
// call Validate first.
func (st *SourceState) Validate() error {
	if st.Seed != 0 {
		if st.Seed < 0 || st.Seed >= int32max || st.Draws < 0 || st.Draws >= seedingDraws {
			return fmt.Errorf("rngutil: compact generator state seed=%d draws=%d outside [1, %d) and [0, %d)", st.Seed, st.Draws, int32max, seedingDraws)
		}
		return nil
	}
	if st.Draws != 0 {
		return fmt.Errorf("rngutil: generator state counts %d draws without a seed", st.Draws)
	}
	if st.Tap < 0 || st.Tap >= rngLen || st.Feed < 0 || st.Feed >= rngLen {
		return fmt.Errorf("rngutil: generator cursors tap=%d feed=%d outside [0, %d)", st.Tap, st.Feed, rngLen)
	}
	if (st.Feed-st.Tap+rngLen)%rngLen != rngLen-rngTap {
		return fmt.Errorf("rngutil: generator cursors tap=%d feed=%d are not %d slots apart", st.Tap, st.Feed, rngLen-rngTap)
	}
	return nil
}

// SetState overwrites the source's generator state with a previously
// captured one. The next outputs are bit-identical to what the captured
// source would have produced. A compact state is restored in O(1), as a
// Seed with its draws counted off feed; nothing is replayed, since a young
// source's draws read only its seed. A ring state is copied into the
// source's ring, which is allocated if the source has none. A state
// outside the generator's range is normalized, its cursors and draw count
// folded modulo their ranges, so a corrupt snapshot cannot index out of
// bounds.
func (s *Source) SetState(st SourceState) {
	if st.Seed != 0 {
		s.Seed(st.Seed)
		s.feed -= int32(wrap(st.Draws, seedingDraws))
		return
	}
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	*s.vec = st.Vec
	s.tap = int32(wrap(st.Tap, rngLen))
	s.feed = int32(wrap(st.Feed, rngLen))
}

// wrap maps an arbitrary int into [0, n).
func wrap(c, n int) int {
	c %= n
	if c < 0 {
		c += n
	}
	return c
}

// stateWords is the word count AppendState writes ahead of the ring. A
// generator with a different state size changes only this count, so a
// reader built for one refuses the other by it.
const stateWords = rngLen

// errStateLayout is ReadState's refusal of bytes that are not a state
// AppendState writes.
var errStateLayout = errors.New("rngutil: malformed generator state")

// AppendState appends st to b in its portable layout, three uvarints and
// then, for the ring form, the ring's words. The ring form is the ring's
// word count, the Tap cursor and the Feed cursor, then each word as the 8
// little-endian bytes of its two's-complement bits. The compact form is a
// word count of 0, then Seed and Draws.
func AppendState(b []byte, st *SourceState) []byte {
	if st.Seed != 0 {
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, uint64(st.Seed))
		return binary.AppendUvarint(b, uint64(st.Draws))
	}
	b = binary.AppendUvarint(b, stateWords)
	b = binary.AppendUvarint(b, uint64(st.Tap))
	b = binary.AppendUvarint(b, uint64(st.Feed))
	n := len(b)
	b = slices.Grow(b, 8*stateWords)[:n+8*stateWords]
	words := b[n:]
	for i, w := range st.Vec {
		binary.LittleEndian.PutUint64(words[8*i:], uint64(w))
	}
	return b
}

// ReadState decodes the state AppendState wrote at the front of b into st
// and returns how many bytes it took. The uvarints must be canonical and
// the word count 0 or this generator's. A compact state's seed must be a
// conditioned one and its draw count below 334, so it passes Validate; a
// ring state's cursors must lie inside the ring, and whether they are a
// pair the generator reaches is Validate's question, left to the caller.
// Either way a state that reads back re-encodes to the same bytes. A
// compact state leaves st.Vec as it was; on error st is left partly
// written.
func ReadState(b []byte, st *SourceState) (int, error) {
	var head [3]uint64 // word count, then Tap and Feed or Seed and Draws
	n := 0
	for i := range head {
		v, k := binary.Uvarint(b[n:])
		if k <= 0 || (k > 1 && b[n+k-1] == 0) {
			return 0, errStateLayout
		}
		head[i], n = v, n+k
	}
	if head[0] == 0 {
		if head[1] == 0 || head[1] >= int32max || head[2] >= seedingDraws {
			return 0, errStateLayout
		}
		st.Seed, st.Draws = int64(head[1]), int(head[2])
		st.Tap, st.Feed = 0, 0
		return n, nil
	}
	if head[0] != stateWords || head[1] >= rngLen || head[2] >= rngLen || len(b)-n < 8*stateWords {
		return 0, errStateLayout
	}
	st.Tap, st.Feed = int(head[1]), int(head[2])
	st.Seed, st.Draws = 0, 0
	for i := range st.Vec {
		st.Vec[i] = int64(binary.LittleEndian.Uint64(b[n:]))
		n += 8
	}
	return n, nil
}
