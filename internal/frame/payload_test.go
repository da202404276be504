package frame

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// TestPayloadFieldsRoundTrip pins the shared field encodings: every
// Append* value reads back exactly (float bits included), and the reader
// refuses the non-canonical and malformed shapes a codec relies on it to
// refuse.
func TestPayloadFieldsRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var b []byte
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendVarint(b, -7)
	b = AppendString(b, "wifi")
	b = AppendString(b, "")
	b = AppendFloat(b, nan)
	b = AppendFloat(b, math.Copysign(0, -1))
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendList(b, []int{-1, 1 << 40}, AppendInt)
	b = AppendList(b, []float64{}, AppendFloat)
	b = AppendList(b, []float64{nan}, AppendFloat)
	r := NewPayloadReader(b)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.Int64(); v != math.MinInt64 {
		t.Fatalf("int64 %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("int %d", v)
	}
	if s1, s2 := r.Text(), r.Text(); s1 != "wifi" || s2 != "" {
		t.Fatalf("strings %q %q", s1, s2)
	}
	if v := r.Float(); math.Float64bits(v) != math.Float64bits(nan) {
		t.Fatalf("NaN payload lost: %x", math.Float64bits(v))
	}
	if v := r.Float(); !math.Signbit(v) || v != 0 {
		t.Fatalf("negative zero lost: %v", v)
	}
	if t1, f1 := r.Bool(), r.Bool(); !t1 || f1 {
		t.Fatalf("bools %v %v", t1, f1)
	}
	if v := ReadList(&r, nil, 1, (*PayloadReader).Int); len(v) != 2 || v[0] != -1 || v[1] != 1<<40 {
		t.Fatalf("int list %v", v)
	}
	if v := ReadList(&r, nil, 8, (*PayloadReader).Float); v != nil {
		t.Fatalf("an empty list into a nil destination decoded as %#v, want nil", v)
	}
	reuse := make([]float64, 0, 4)
	if v := ReadList(&r, reuse, 8, (*PayloadReader).Float); len(v) != 1 || &v[0] != &reuse[:1][0] || math.Float64bits(v[0]) != math.Float64bits(nan) {
		t.Fatalf("float list %v did not decode into the destination's storage", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		p    []byte
		read func(*PayloadReader)
		want error
	}{
		{"overlong varint", []byte{0x80, 0}, func(r *PayloadReader) { r.Uvarint() }, errVarint},
		{"truncated varint", []byte{0x80}, func(r *PayloadReader) { r.Uvarint() }, ErrTruncated},
		{"count beyond the bytes left", []byte{3, 1, 2}, func(r *PayloadReader) { r.Count(1) }, errCount},
		{"presence byte 2", []byte{2}, func(r *PayloadReader) { r.Bool() }, errPresence},
		{"short float", make([]byte, 7), func(r *PayloadReader) { r.Float() }, ErrTruncated},
		{"trailing byte", []byte{1, 0}, func(r *PayloadReader) { r.Uvarint() }, errTrailing},
		{"skip beyond the bytes left", []byte{1, 2}, func(r *PayloadReader) { r.Skip(3) }, ErrTruncated},
		{"list count beyond the bytes left", []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *PayloadReader) { ReadList(r, nil, 8, (*PayloadReader).Float) }, errCount},
	} {
		r := NewPayloadReader(tc.p)
		tc.read(&r)
		if err := r.Finish(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestPayloadWarmAllocs is the allocation gate behind the field encodings'
// //repolint:allocfree markers: appending into retained scratch and
// reading every field kind back (empty strings, as warm frames carry)
// allocate nothing.
func TestPayloadWarmAllocs(t *testing.T) {
	var scratch []byte
	ints, floats := []int{-1, 0, 300}, []float64{0.25, -2}
	intsBack, floatsBack := make([]int, 3), make([]float64, 2)
	var r PayloadReader // a list's element reader escapes it, so warm decoders keep theirs
	roundTrip := func() {
		b := binary.AppendUvarint(scratch[:0], 300)
		b = binary.AppendVarint(b, -300)
		b = AppendString(b, "")
		b = AppendFloat(b, 0.5)
		b = AppendBool(b, true)
		b = AppendInt(b, -3)
		b = AppendList(b, ints, AppendInt)
		b = AppendList(b, floats, AppendFloat)
		b = append(b, 9)
		scratch = b
		r = NewPayloadReader(b)
		_, _, _, _, _, _ = r.Uvarint(), r.Int(), r.Text(), r.Float(), r.Bool(), r.Int()
		intsBack = ReadList(&r, intsBack, 1, (*PayloadReader).Int)
		floatsBack = ReadList(&r, floatsBack, 8, (*PayloadReader).Float)
		r.Skip(len(r.Rest()))
		if r.Err() != nil || r.Len() != 0 || r.Finish() != nil {
			t.Fatal("warm payload did not read back")
		}
		r.Fail(ErrTag)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("warm payload round trip costs %.1f allocs/op, want 0", allocs)
	}
}
