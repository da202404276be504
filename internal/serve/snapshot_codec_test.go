package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartexp3/internal/core"
	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
	"smartexp3/internal/rngutil"
)

// encodeStream returns sn's v6 stream.
func encodeStream(tb testing.TB, sn *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// gobDevice passes ds through gob, the snapshot encoding before version 4.
func gobDevice(t *testing.T, ds *DeviceSnapshot) DeviceSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ds); err != nil {
		t.Fatal(err)
	}
	var out DeviceSnapshot
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotCodecMatchesGob pins the v6 record to the encoding it
// replaced: every device decodes to the value a gob round trip of the same
// device yields — empty lists decode as nil, as gob's did — and re-encodes
// to the same bytes. Every float keeps its exact bits, −0 and NaN payloads
// included, and every strict prefix of a record is refused.
func TestSnapshotCodecMatchesGob(t *testing.T) {
	live := churnedStore(t, Config{Shards: 2}, 6, 25)
	captured := live.Snapshot().Devices
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef)

	var odd DeviceSnapshot
	if err := captured[0].Decode(&odd); err != nil {
		t.Fatal(err)
	}
	odd.State.SumW, odd.State.SelProb, odd.State.DropRef = negZero, nan, math.Inf(-1)
	odd.State.LogW[0], odd.State.Window = nan, []float64{negZero, nan}
	odd.Pending, odd.Slot = -1, math.MaxUint64
	empty := DeviceSnapshot{State: emptyListState()}

	cases := map[string]*DeviceSnapshot{
		"zero":         {},
		"empty lists":  &empty,
		"−0, NaN, Inf": &odd,
	}
	for _, rec := range captured {
		var ds DeviceSnapshot
		if err := rec.Decode(&ds); err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("captured device %d", rec.Device)] = &ds
	}
	for name, ds := range cases {
		p := appendRecord(nil, ds)
		var got DeviceSnapshot
		var r frame.PayloadReader
		if err := decodeRecord(&r, p, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := gobDevice(t, ds); !frametest.Same(got, want) {
			t.Errorf("%s: codec decoded %+v, gob %+v", name, got.State, want.State)
		}
		if q := appendRecord(nil, &got); !bytes.Equal(q, p) {
			t.Errorf("%s: re-encoding differs", name)
		}
		frametest.RefusesPrefixes(t, name, p, func(q []byte) error {
			var short DeviceSnapshot
			return decodeRecord(&r, q, &short)
		})
	}
	// The bits gob normalizes away, kept exactly.
	var back DeviceSnapshot
	if err := odd.Record().Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(back.State.SumW) || math.Float64bits(back.State.SelProb) != math.Float64bits(nan) ||
		math.Float64bits(back.State.LogW[0]) != math.Float64bits(nan) || !math.Signbit(back.State.Window[0]) {
		t.Fatal("a record lost a −0 or a NaN payload")
	}
}

// emptyListState is a policy state whose every list is empty but not nil.
func emptyListState() (s core.PolicyState) {
	s.Available, s.Explore, s.X, s.CntGain, s.SlotsOn = []int{}, []int{}, []int{}, []int{}, []int{}
	s.LogW, s.Tree, s.SumGain = []float64{}, []float64{}, []float64{}
	s.Window, s.PrevWindow = []float64{}, []float64{}
	return s
}

// TestSnapshotCodecCarriesEveryField walks DeviceSnapshot — with it
// rngutil.SourceState and core.PolicyState — by reflection and round-trips,
// for each leaf field, a device with only that field set. The generator
// has two forms that carry different fields, the ring form its words and
// cursors and the compact form its seed and draw count, so each leaf is
// set on a device of each form and must survive the record in at least
// one. A field the record does not carry decodes as zero and fails the
// test by name, so a field added to any of these types can never silently
// drop out of a snapshot.
func TestSnapshotCodecCarriesEveryField(t *testing.T) {
	// Every value the walk sets is one the record decodes as it is: 5 for
	// integers, which every cursor bound admits.
	scalars := frametest.Scalars{reflect.Int: 5, reflect.Int64: 5, reflect.Uint64: 5, reflect.Float64: 0.375, reflect.Bool: true}
	leaves := frametest.Walk(t, reflect.TypeFor[DeviceSnapshot](), "DeviceSnapshot", scalars)
	forms := []rngutil.SourceState{{}, {Seed: 1}} // the ring form, then the compact form
	carried := make([]int, len(forms))
	var r frame.PayloadReader
	for _, ls := range leaves {
		survived := false
		for i, form := range forms {
			ds := DeviceSnapshot{Rng: form}
			ls.Set(reflect.ValueOf(&ds).Elem())
			var got DeviceSnapshot
			err := decodeRecord(&r, appendRecord(nil, &ds), &got)
			if err == nil && reflect.DeepEqual(got, ds) {
				survived = true
				carried[i]++
			}
		}
		if !survived {
			t.Errorf("%s does not survive the record in either generator form", ls.Path)
		}
	}
	// A floor on the walk itself, so a broken walker cannot pass vacuously.
	if len(leaves) < 43 {
		t.Fatalf("walked only %d DeviceSnapshot leaves", len(leaves))
	}
	// On the ring-form device every leaf survives but the draw count (a
	// seed set there makes the device a compact one, which carries it); on
	// the compact one the ring's two walked words and its two cursors do
	// not.
	if want := []int{len(leaves) - 1, len(leaves) - 4}; carried[0] != want[0] || carried[1] != want[1] {
		t.Fatalf("the forms carried %v of %d leaves, want %v", carried, len(leaves), want)
	}
}

// TestReadSnapshotRefusesVersion3 reads a snapshot written by the last
// gob-encoded layout (version 3, checked in as testdata): ReadSnapshot and
// LoadFile refuse it with a *VersionError naming both versions. A stream
// that is neither is refused as no snapshot at all.
func TestReadSnapshotRefusesVersion3(t *testing.T) {
	path := filepath.Join("testdata", "snapshot-v3.gob")
	v3, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadSnapshot(bytes.NewReader(v3))
	var verr *VersionError
	if !errors.As(err, &verr) || verr.Got != 3 || verr.Want != snapshotVersion {
		t.Fatalf("ReadSnapshot of a v3 file: got %v, want a *VersionError for 3 against %d", err, snapshotVersion)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 3") || !strings.Contains(msg, fmt.Sprintf("want %d", snapshotVersion)) {
		t.Fatalf("the refusal %q does not name both versions", msg)
	}
	s := newTestStore(t, Config{Seed: 42})
	if err := s.LoadFile(path); !errors.As(err, &verr) {
		t.Fatalf("LoadFile of a v3 file: got %v, want a *VersionError", err)
	}
	for _, b := range [][]byte{nil, []byte("SXP3"), []byte("not a snapshot at all")} {
		if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil || errors.As(err, &verr) {
			t.Fatalf("ReadSnapshot(%q): got %v, want a refusal that names no version", b, err)
		}
	}
}

// TestReadSnapshotRefusesVersion4 reads streams of the fixed layout's
// earlier versions: 4, whose records carried every generator as its full
// ring, and 5, whose records carried the linear-space weights and γ.
// ReadSnapshot and LoadFile refuse each by its header with a
// *VersionError naming both versions.
func TestReadSnapshotRefusesVersion4(t *testing.T) {
	s := churnedStore(t, Config{Seed: 42}, 3, 4)
	for _, v := range []int{4, 5} {
		sn := s.Snapshot()
		sn.Version = v
		old := encodeStream(t, sn)
		_, err := ReadSnapshot(bytes.NewReader(old))
		var verr *VersionError
		want := VersionError{Got: v, Want: 6}
		if !errors.As(err, &verr) || *verr != want {
			t.Fatalf("ReadSnapshot of a v%d stream: got %v, want %v", v, err, &want)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.snap", v))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadFile(path); !errors.As(err, &verr) || *verr != want {
			t.Fatalf("LoadFile of a v%d stream: got %v, want %v", v, err, &want)
		}
	}
}

// TestReadSnapshotRefusesMalformedStreams edits a valid stream into each
// shape ReadSnapshot must refuse: bytes after the last record, a missing
// record, a truncated record, a record with trailing bytes, devices out of
// order, an overlong header varint, and a record count the stream does not
// hold. The unedited stream reads back and re-encodes byte for byte.
func TestReadSnapshotRefusesMalformedStreams(t *testing.T) {
	s := churnedStore(t, Config{}, 3, 10)
	sn := s.Snapshot()
	stream := encodeStream(t, sn)
	back, err := ReadSnapshot(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeStream(t, back), stream) {
		t.Fatal("a read snapshot re-encodes to other bytes")
	}

	// frames splits a stream after its magic into its length-prefixed frames.
	frames := func(b []byte) [][]byte {
		var out [][]byte
		for b = b[len(snapshotMagic):]; len(b) > 0; {
			n := 4 + int(binary.LittleEndian.Uint32(b))
			out = append(out, b[:n])
			b = b[n:]
		}
		return out
	}
	join := func(fs ...[]byte) []byte { return append([]byte(snapshotMagic), bytes.Join(fs, nil)...) }
	reframe := func(p []byte) []byte { return append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...) }
	f := frames(stream)
	if len(f) != 4 {
		t.Fatalf("a 3-device stream split into %d frames", len(f))
	}
	header := func(count uint64) []byte {
		h := frame.AppendInt(nil, snapshotVersion)
		h = frame.AppendInt(h, int(sn.Algorithm))
		h = binary.AppendVarint(h, sn.Seed)
		h = binary.AppendUvarint(h, sn.Dropped)
		return reframe(binary.AppendUvarint(h, count))
	}
	for name, b := range map[string][]byte{
		"a byte after the last record":   append(append([]byte(nil), stream...), 0),
		"a missing record":               join(f[0], f[1], f[2]),
		"a truncated record":             stream[:len(stream)-1],
		"a record with a trailing byte":  join(f[0], f[1], f[2], reframe(append(append([]byte(nil), f[3][4:]...), 0))),
		"devices out of order":           join(f[0], f[2], f[1], f[3]),
		"a repeated device":              join(f[0], f[1], f[1], f[3]),
		"an overlong header varint":      join(reframe(append([]byte{0x88, 0x00}, f[0][5:]...)), f[1], f[2], f[3]),
		"a count the stream cannot hold": join(header(1<<40), f[1], f[2], f[3]),
		"no header":                      []byte(snapshotMagic),
	} {
		if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSnapshotEncodeAllocatesPerSnapshot pins Encode's allocations to a
// constant: a snapshot of 200 devices costs no more than one of 4.
func TestSnapshotEncodeAllocatesPerSnapshot(t *testing.T) {
	small := churnedStore(t, Config{}, 4, 3).Snapshot()
	large := churnedStore(t, Config{}, 200, 3).Snapshot()
	encode := func(sn *Snapshot) func() {
		return func() {
			if err := sn.Encode(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := testing.AllocsPerRun(20, encode(small)), testing.AllocsPerRun(20, encode(large))
	if b > a {
		t.Fatalf("Encode costs %.0f allocs for 4 devices and %.0f for 200", a, b)
	}
}

// fuzzSnapshotSeeds is the checked-in seed corpus for FuzzSnapshotCodec:
// a stream of a small store, a record with each generator form, an empty
// stream, and the shapes the decoders must refuse.
func fuzzSnapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	s, err := NewStore(Config{Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	decide := func(dev uint64, arms []int, slot int, answer bool) {
		arm, sl, err := s.Select(dev, arms)
		if err != nil {
			tb.Fatal(err)
		}
		if answer {
			s.Feedback(dev, arm, sl, reward(dev, arm, slot))
		}
	}
	for slot := 0; slot < 12; slot++ {
		for _, dev := range []uint64{2, 1 << 40} {
			decide(dev, []int{1, 4, 6}, slot, slot != 11)
		}
	}
	// Device 3 changes arm sets on every slot, so it draws once per slot
	// and its generator is past the compact form by the 400th.
	for slot := 0; slot < 400; slot++ {
		decide(3, [][]int{{0, 2}, {0, 1, 2}}[slot%2], slot, true)
	}
	sn := s.Snapshot()
	stream := encodeStream(tb, sn)
	compactRec, ringRec := []byte(sn.Devices[0].Record), []byte(sn.Devices[1].Record)
	if len(ringRec) < 8*607 {
		tb.Fatalf("device 3's %d-byte record does not hold a ring", len(ringRec))
	}
	empty := encodeStream(tb, &Snapshot{Version: snapshotVersion, Seed: 9})
	ring := rngutil.AppendState(nil, &rngutil.SourceState{})
	pastSeeding := rngutil.AppendState(nil, &rngutil.SourceState{Seed: 7, Draws: 334})
	return [][]byte{
		stream,
		compactRec,
		ringRec,
		empty,
		stream[:len(stream)-3], // a truncated record
		append(append([]byte(nil), compactRec...), 0),    // a record with a trailing byte
		append([]byte{0x80, 0x00}, compactRec[1:]...),    // an overlong device id
		append([]byte{1, 1, 0}, ring[:len(ring)-8]...),   // a ring one word short
		append([]byte{1, 1, 0, 0x87, 0x04}, ring[2:]...), // a 519-word ring
		append([]byte{1, 1, 0}, pastSeeding...),          // a compact generator 334 draws in
		[]byte(snapshotMagic),
	}
}

// FuzzSnapshotCodec throws arbitrary bytes at the record decoder and at
// ReadSnapshot. The invariants: no panic; a record or a stream that
// decodes re-encodes to exactly the same bytes (the layout is canonical,
// so nothing is silently normalized); and no decoded list is longer than
// the input, so a hostile count can never size storage beyond the bytes
// that arrived.
func FuzzSnapshotCodec(f *testing.F) {
	for _, seed := range fuzzSnapshotSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var ds DeviceSnapshot
		var r frame.PayloadReader
		err := decodeRecord(&r, p, &ds)
		frametest.ListsFit(t, ds.State, p)
		if err == nil {
			if got := appendRecord(nil, &ds); !bytes.Equal(got, p) {
				t.Fatalf("record %x decodes but re-encodes as %x", p, got)
			}
		}
		sn, err := ReadSnapshot(bytes.NewReader(p))
		if err != nil {
			return
		}
		if got := encodeStream(t, sn); !bytes.Equal(got, p) {
			t.Fatalf("stream %x reads but re-encodes as %x", p, got)
		}
	})
}

// TestWriteFuzzSnapshotCodecCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzSnapshotCodec when UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzSnapshotCodecCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzSnapshotCodec", fuzzSnapshotSeeds(t))
}
