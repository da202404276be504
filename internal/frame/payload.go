package frame

import (
	"encoding/binary"
	"errors"
	"math"
)

// The fixed-layout payloads of the serve and cluster protocols share one
// set of field encodings: unsigned integers as canonical uvarints, signed
// ones as canonical zigzag varints, floats as the 8 little-endian bytes of
// their IEEE-754 bits, strings and lists as a uvarint count followed by
// the bytes or elements, and booleans and optional parts as a 0/1
// presence byte. Each protocol's codec puts a tag byte first and lays its
// messages' fields out in declaration order with the Append* functions
// and binary.AppendUvarint/AppendVarint; a PayloadReader reads them back.
// The encodings are canonical, so a payload decodes only if re-encoding
// the result reproduces it byte for byte.

// Decode failures are static values so a rejected payload never formats on
// the decode path; the connection loops wrap them with context on their
// (cold) error returns.
var (
	ErrTruncated = errors.New("frame: payload truncated")
	errVarint    = errors.New("frame: malformed or non-canonical varint")
	errCount     = errors.New("frame: count exceeds the payload's remaining bytes")
	errIntRange  = errors.New("frame: integer overflows int")
	errPresence  = errors.New("frame: presence byte is neither 0 nor 1")
	ErrTag       = errors.New("frame: unknown message tag")
	errTrailing  = errors.New("frame: trailing bytes after the message")
)

// AppendString appends s as a uvarint length and its bytes.
//
//repolint:allocfree via TestPayloadWarmAllocs
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	//repolint:ignore allocfree appends into the connection's encode scratch, whose capacity is retained across frames
	return append(b, s...)
}

// AppendFloat appends the 8 little-endian bytes of v's IEEE-754 bits, so
// every value — NaN payloads and negative zero included — crosses the
// wire exactly.
//
//repolint:allocfree via TestPayloadWarmAllocs
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendInt appends v as a zigzag varint.
//
//repolint:allocfree via TestPayloadWarmAllocs
func AppendInt(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

// AppendList appends a count and each element of vs.
//
//repolint:allocfree via TestPayloadWarmAllocs
func AppendList[T any](b []byte, vs []T, appendElem func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendElem(b, v)
	}
	return b
}

// AppendBool appends v as a presence byte.
//
//repolint:allocfree via TestPayloadWarmAllocs
func AppendBool(b []byte, v bool) []byte {
	if v {
		return binary.AppendUvarint(b, 1)
	}
	return binary.AppendUvarint(b, 0)
}

// PayloadReader walks one payload. The first failure sticks: later reads
// return zero values and consume nothing, so a decoder checks once, at
// Finish.
type PayloadReader struct {
	b   []byte
	err error
}

// NewPayloadReader reads p.
func NewPayloadReader(p []byte) PayloadReader { return PayloadReader{b: p} }

// Fail records err (if it is the first failure) and stops the reader.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Err returns the reader's first failure.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Err() error { return r.err }

// Len returns the number of unread bytes.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Len() int { return len(r.b) }

// Finish reports the reader's first failure, or an error when bytes are
// left after a message that decoded cleanly.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		return errTrailing
	}
	return r.err
}

// Uvarint reads a canonical uvarint: an overlong encoding (a final zero
// byte after a continuation) is rejected so that decoding stays the exact
// inverse of binary.AppendUvarint.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail(ErrTruncated)
		return 0
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.Fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int64 reads a canonical zigzag varint.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Int64() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a zigzag varint that must fit an int.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Int() int {
	v := r.Int64()
	if v < math.MinInt || v > math.MaxInt {
		r.Fail(errIntRange)
		return 0
	}
	return int(v)
}

// Count reads a list or string length and bounds it by the bytes left:
// each element takes at least minBytes, so a larger count cannot be
// well-formed and is refused before anything is sized for it.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.Fail(errCount)
		return 0
	}
	return int(n)
}

// Bool reads a presence byte.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Bool() bool {
	switch r.Uvarint() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(errPresence)
	return false
}

// Text reads a length-prefixed string. Warm frames carry only empty
// strings, whose conversion does not allocate.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Text() string {
	n := r.Count(1)
	if n == 0 {
		return ""
	}
	//repolint:ignore allocfree non-empty strings (errors, redirects, names) occur only on cold paths
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// ReadList reads a count, bounded by the bytes left at minBytes per
// element, then each element with readElem, into dst's storage when it has
// room and into an exactly sized new slice otherwise. An empty list is
// dst[:0], so a nil dst decodes an empty list as nil.
//
//repolint:allocfree via TestPayloadWarmAllocs
func ReadList[T any](r *PayloadReader, dst []T, minBytes int, readElem func(*PayloadReader) T) []T {
	n := r.Count(minBytes)
	if cap(dst) < n {
		//repolint:ignore allocfree a warm decode reuses dst; only a list longer than any before it sizes new storage
		dst = make([]T, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = readElem(r)
	}
	return dst
}

// Rest returns the unread bytes, for a field whose layout another package
// owns; Skip then consumes what that package decoded.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Rest() []byte { return r.b }

// Skip consumes n unread bytes.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Skip(n int) {
	if n < 0 || n > len(r.b) {
		r.Fail(ErrTruncated)
		return
	}
	r.b = r.b[n:]
}

// Float reads the 8 little-endian bytes of an IEEE-754 value.
//
//repolint:allocfree via TestPayloadWarmAllocs
func (r *PayloadReader) Float() float64 {
	if len(r.b) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}
