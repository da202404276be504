package rngutil

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"testing"
)

func TestSourceStateResumesBitIdentically(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 424242} {
		src := NewSource(seed)
		// Advance past a ring wrap so the cursors are mid-stream.
		for i := 0; i < 1000; i++ {
			src.Uint64()
		}
		var st SourceState
		src.ExportState(&st)
		restored := &Source{}
		restored.SetState(st)
		for i := 0; i < 2000; i++ {
			if a, b := src.Uint64(), restored.Uint64(); a != b {
				t.Fatalf("seed %d: restored stream diverges at draw %d: %d != %d", seed, i, a, b)
			}
		}
	}
}

func TestSourceStateCapturesRandRandStreams(t *testing.T) {
	// The serve layer wraps Source in rand.Rand; rand.Rand keeps no state of
	// its own for the methods the policies use, so restoring the Source must
	// restore the whole derived stream.
	src := NewSource(99)
	rng := rand.New(src)
	for i := 0; i < 137; i++ {
		rng.Float64()
		rng.Intn(17)
	}
	var st SourceState
	src.ExportState(&st)

	restoredSrc := &Source{}
	restoredSrc.SetState(st)
	restoredRng := rand.New(restoredSrc)
	for i := 0; i < 500; i++ {
		if a, b := rng.Float64(), restoredRng.Float64(); a != b {
			t.Fatalf("Float64 diverges at %d: %v != %v", i, a, b)
		}
		if a, b := rng.Intn(1000), restoredRng.Intn(1000); a != b {
			t.Fatalf("Intn diverges at %d: %d != %d", i, a, b)
		}
	}
}

func TestSourceStateGobRoundTrip(t *testing.T) {
	src := NewSource(5)
	for i := 0; i < 31; i++ {
		src.Uint64()
	}
	var st SourceState
	src.ExportState(&st)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var back SourceState
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	restored := &Source{}
	restored.SetState(back)
	for i := 0; i < 100; i++ {
		if a, b := src.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("gob round trip diverges at draw %d", i)
		}
	}
}

func TestSetStateClampsCorruptCursors(t *testing.T) {
	var st SourceState
	NewSource(1).ExportState(&st)
	st.Tap = -3
	st.Feed = rngLen*5 + 2
	s := &Source{}
	s.SetState(st)
	// Must not panic; cursors are back in range.
	for i := 0; i < 2*rngLen; i++ {
		s.Uint64()
	}
}

func TestSourceStateValidate(t *testing.T) {
	src := NewSource(3)
	var st SourceState
	for i := 0; i < 2*rngLen+5; i++ {
		if src.ExportState(&st); st.Validate() != nil {
			t.Fatalf("draw %d: reachable state (tap=%d feed=%d) rejected: %v", i, st.Tap, st.Feed, st.Validate())
		}
		src.Uint64()
	}
	for _, c := range []struct{ tap, feed int }{
		{-1, rngLen - rngTap - 1}, {rngLen, rngLen - rngTap}, {0, rngLen},
		{0, -rngTap}, {1, rngLen - rngTap}, {0, 0}, {5, 5 + rngTap},
	} {
		src.ExportState(&st)
		st.Tap, st.Feed = c.tap, c.feed
		if st.Validate() == nil {
			t.Errorf("cursors tap=%d feed=%d accepted", c.tap, c.feed)
		}
	}
}

// TestStateLayoutRoundTrip pins AppendState's layout: a mid-stream state
// reads back (with trailing bytes left alone) to a source that resumes the
// stream, re-encodes to the same bytes, and every malformed variant — a
// different word count, a cursor outside the ring, an overlong varint, a
// missing word — is refused.
func TestStateLayoutRoundTrip(t *testing.T) {
	src := NewSource(11)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	var st SourceState
	src.ExportState(&st)
	enc := AppendState(nil, &st)
	if want := 2 + 2 + 2 + 8*rngLen; len(enc) != want {
		t.Fatalf("state encodes to %d bytes, want %d", len(enc), want)
	}
	var back SourceState
	n, err := ReadState(append(enc, 0xaa), &back)
	if err != nil || n != len(enc) {
		t.Fatalf("ReadState: %d bytes, %v; want %d bytes", n, err, len(enc))
	}
	if !bytes.Equal(AppendState(nil, &back), enc) {
		t.Fatal("a decoded state re-encodes to other bytes")
	}
	restored := &Source{}
	restored.SetState(back)
	for i := 0; i < 2000; i++ {
		if a, b := src.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("decoded state diverges at draw %d", i)
		}
	}

	head := func(words, tap, feed uint64) []byte {
		b := binary.AppendUvarint(nil, words)
		b = binary.AppendUvarint(b, tap)
		return binary.AppendUvarint(b, feed)
	}
	body := enc[6:]
	for name, b := range map[string][]byte{
		"a 16-word state":        append(head(16, uint64(st.Tap), uint64(st.Feed)), body[:8*16]...),
		"tap outside the ring":   append(head(rngLen, rngLen, uint64(st.Feed)), body...),
		"overlong word count":    append([]byte{0xdf, 0x84, 0x00}, enc[2:]...),
		"one word short":         enc[:len(enc)-8],
		"no bytes at all":        nil,
		"truncated cursor field": enc[:3],
	} {
		if _, err := ReadState(b, &back); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStateRoundTripsAtEveryDrawCount carries a source's state through
// ExportState, AppendState, ReadState and SetState after every draw count
// from 0 to 700, through the compact form and past it: the restored
// source's next two ring lengths of draws are the stdlib's, its state
// re-exports to the same bytes, and the form switches at draw 334.
func TestStateRoundTripsAtEveryDrawCount(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 424242, int32max - 1, 1 << 40} {
		src := NewSource(seed)
		var st, back SourceState
		var restored Source
		for n := 0; n <= 700; n++ {
			src.ExportState(&st)
			enc := AppendState(nil, &st)
			if compact := len(enc) < 8*rngLen; compact != (n < seedingDraws) {
				t.Fatalf("seed %d, %d draws: a %d-byte state", seed, n, len(enc))
			}
			k, err := ReadState(enc, &back)
			if err != nil || k != len(enc) {
				t.Fatalf("seed %d, %d draws: ReadState took %d of %d bytes: %v", seed, n, k, len(enc), err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("seed %d, %d draws: %v", seed, n, err)
			}
			restored.Seed(99) // over a young source of another seed
			restored.Uint64()
			restored.SetState(back)
			restored.ExportState(&back)
			if !bytes.Equal(AppendState(nil, &back), enc) {
				t.Fatalf("seed %d, %d draws: the restored source re-exports other bytes", seed, n)
			}
			std := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n; i++ {
				std.Uint64()
			}
			for i := 0; i < 2*rngLen; i++ {
				if g, w := restored.Uint64(), std.Uint64(); g != w {
					t.Fatalf("seed %d, restored at %d draws: draw %d is %d, stdlib %d", seed, n, i, g, w)
				}
			}
			src.Uint64()
		}
	}
}

// TestExportStateLeavesTheSourceAsItWas exports a source after every draw
// count through its young draws and past them: the source, ring and all,
// is bit for bit what it was before the export.
func TestExportStateLeavesTheSourceAsItWas(t *testing.T) {
	src := NewSource(12)
	var st SourceState
	for n := 0; n <= 2*rngLen; n++ {
		before, ring := *src, *src.vec
		src.ExportState(&st)
		if *src != before || *src.vec != ring {
			t.Fatalf("exporting after %d draws wrote the source", n)
		}
		src.Uint64()
	}
}

// TestCompactStateRefusals feeds ReadState and Validate compact states no
// source exports: a zero seed, a seed outside the conditioned range, a
// draw count the ring's seeding does not last, and overlong uvarints.
func TestCompactStateRefusals(t *testing.T) {
	compact := func(fields ...uint64) []byte {
		b := binary.AppendUvarint(nil, 0)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return b
	}
	var st SourceState
	largest := compact(int32max-1, seedingDraws-1)
	if n, err := ReadState(largest, &st); err != nil || n != len(largest) || st.Validate() != nil {
		t.Fatalf("the largest compact state: %d of %d bytes, %v, %v", n, len(largest), err, st.Validate())
	}
	for name, b := range map[string][]byte{
		"a zero seed":              compact(0, 5),
		"a seed of 2³¹−1":          compact(int32max, 5),
		"a seed past 2⁶³":          compact(1<<63, 5),
		"334 draws":                compact(7, seedingDraws),
		"an overlong word count":   append([]byte{0x80, 0x00}, compact(7, 5)[1:]...),
		"an overlong seed":         append(compact(), 0x87, 0x00, 5),
		"an overlong draw count":   append(compact(7), 0x85, 0x00),
		"a missing draw count":     compact(7),
		"a truncated draw count":   append(compact(7), 0x85),
		"a truncated seed":         compact(1 << 20)[:3],
		"no bytes after the count": compact(),
		"a 1-word ring":            {1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := ReadState(b, &st); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, bad := range []SourceState{
		{Seed: -1}, {Seed: int32max}, {Seed: 7, Draws: seedingDraws}, {Seed: 7, Draws: -1},
		{Draws: 3, Tap: 0, Feed: rngLen - rngTap}, // draws and no seed
	} {
		if bad.Validate() == nil {
			t.Errorf("seed=%d draws=%d accepted", bad.Seed, bad.Draws)
		}
	}
}
