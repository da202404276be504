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
type SourceState struct {
	Vec       [rngLen]int64
	Tap, Feed int
}

// ExportState copies the source's current generator state into dst. A
// source fewer than 334 draws past a Seed first computes the ring words it
// has not yet read, in place, so ExportState may write the source, and the
// state it exports is the one eager seeding reaches. The ring is copied
// once, straight into dst, so a destination that already exists, such as a
// record in a snapshot's device array, costs no temporary.
func (s *Source) ExportState(dst *SourceState) {
	s.complete()
	dst.Vec = s.vec
	dst.Tap, dst.Feed = int(s.tap), int(s.feed)
}

// Validate reports whether st is a state the generator can reach: both
// cursors inside the ring, and Feed exactly rngLen−rngTap slots ahead of
// Tap (mod rngLen), as seeding sets them and every draw keeps them. A
// state that fails it came from a corrupt snapshot, not from a Source;
// SetState would fold its cursors into range and resume a stream math/rand
// never produces, so restore paths call Validate first.
func (st *SourceState) Validate() error {
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
// source would have produced. States whose cursors fall outside the
// generator's ring are rejected by normalizing them modulo the ring length,
// so a corrupt snapshot cannot index out of bounds.
func (s *Source) SetState(st SourceState) {
	s.vec = st.Vec
	s.tap = clampCursor(st.Tap)
	s.feed = clampCursor(st.Feed)
}

// clampCursor maps an arbitrary int into [0, rngLen), the generator ring's
// valid cursor range.
func clampCursor(c int) int32 {
	c %= rngLen
	if c < 0 {
		c += rngLen
	}
	return int32(c)
}

// stateWords is the word count AppendState writes ahead of the ring. A
// generator with a different state size changes only this count, so a
// reader built for one refuses the other by it.
const stateWords = rngLen

// errStateLayout is ReadState's refusal of bytes that are not a state
// AppendState writes.
var errStateLayout = errors.New("rngutil: malformed generator state")

// AppendState appends st to b in its portable layout: the ring's word
// count, the Tap cursor and the Feed cursor as uvarints, then each of the
// ring's words as the 8 little-endian bytes of its two's-complement bits.
func AppendState(b []byte, st *SourceState) []byte {
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
// and returns how many bytes it took. The uvarints must be canonical, the
// word count this generator's and both cursors inside the ring, so a state
// that reads back re-encodes to the same bytes. Whether the cursors are a
// pair the generator reaches is Validate's question, left to the caller.
// On error st is left partly written.
func ReadState(b []byte, st *SourceState) (int, error) {
	var head [3]uint64 // word count, Tap, Feed
	n := 0
	for i := range head {
		v, k := binary.Uvarint(b[n:])
		if k <= 0 || (k > 1 && b[n+k-1] == 0) {
			return 0, errStateLayout
		}
		head[i], n = v, n+k
	}
	if head[0] != stateWords || head[1] >= rngLen || head[2] >= rngLen || len(b)-n < 8*stateWords {
		return 0, errStateLayout
	}
	st.Tap, st.Feed = int(head[1]), int(head[2])
	for i := range st.Vec {
		st.Vec[i] = int64(binary.LittleEndian.Uint64(b[n:]))
		n += 8
	}
	return n, nil
}
