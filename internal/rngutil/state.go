package rngutil

import "fmt"

// SourceState is the complete generator state of a Source, in exported form
// so it can cross serialization boundaries (gob, snapshots). Capturing and
// restoring it resumes the stream bit-for-bit: a restored source produces
// exactly the outputs the original would have produced next. The serve
// layer's snapshot/restore determinism contract rests on this — per-device
// policy randomness must survive a daemon restart unchanged.
type SourceState struct {
	Vec       [rngLen]int64
	Tap, Feed int
}

// ExportState copies the source's current generator state into dst. The
// ring is copied once, straight into dst, so a destination that already
// exists, such as a record in a snapshot's device array, costs no
// temporary.
func (s *Source) ExportState(dst *SourceState) {
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
