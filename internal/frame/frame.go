// Package frame is the one transport layer under every wire in the
// repository: the cluster session (coordinator ↔ shardd), the serve
// decision protocol (client ↔ served) and the fleet control protocol
// (coordinator ↔ fleetd peer) all move their messages as frames of this
// package over a Conn, and open every session with the same versioned
// hello exchange.
//
// A frame is a 12-byte header followed by its payload. The header holds
// the payload length (big-endian uint32), the payload's CRC-32C, and the
// CRC-32C of those first eight bytes. The header check makes a corrupted
// length fail at the header read instead of making the reader wait for a
// body that never comes; the payload check makes a corrupted body fail
// before any decoder sees it. Payloads are bounded by maxFrameBytes, and
// the bound is checked before any buffer is sized. Corruption of either
// kind is therefore always a connection error, never a silently different
// value — the property the chaos identity tests build on.
//
// What a payload holds is the protocol's business. Writer.WriteFrame and
// Reader.ReadFrame carry the bytes a protocol encoded itself: the serve,
// cluster and fleet fixed-layout codecs, all built on the field encodings
// of payload.go. A connection holds no codec state of its own beyond its
// header scratch and its reusable payload buffer.
//
// The accept side is shared too: Listener is the accept loop under
// serve.Server and the fleet control plane, and Accept, under it and
// cluster.Serve, sleeps through transient failures.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"smartexp3/internal/obsv"
)

// maxFrameBytes bounds a single payload. A cluster result frame is
// dominated by the optional per-slot series and a fleet migration frame by
// a stripe's snapshot; both stay well under this for any configuration
// the experiments run. The cap exists so a corrupt or hostile length
// cannot make a peer allocate unbounded memory.
const maxFrameBytes = 64 << 20

// headerSize is the fixed per-frame header: payload length, payload
// CRC-32C, header CRC-32C, four bytes each.
const headerSize = 12

// castagnoli is the CRC-32C table, computed once; crc32.Checksum with a
// prepared table is allocation-free and hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// retainFrameBytes is the high-water mark above which the reader's
// payload buffer is released after an outsized frame instead of staying
// pinned for the connection's (potentially very long) lifetime.
const retainFrameBytes = 1 << 20

// Writer emits frames: a header, then the payload as the caller encoded
// it.
//
// Not safe for concurrent use; callers serialize writes per connection.
type Writer struct {
	w      io.Writer
	hdr    [headerSize]byte // WriteFrame's header scratch
	frames *obsv.Counter    // optional; see Instrument
	bytes  *obsv.Counter
}

// Instrument counts every successfully written frame and its wire bytes
// (header included) on the given counters. Call it before the writer
// carries traffic; both counters must be non-nil together.
func (fw *Writer) Instrument(frames, bytes *obsv.Counter) {
	fw.frames, fw.bytes = frames, bytes
}

// NewWriter returns a frame writer for one connection's outbound stream.
// Pair it with a NewReader on the receiving side.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame writes payload as one frame: its length, its CRC-32C and the
// header's own CRC-32C, then the payload, which must fit the reader's
// bounds. The payload is copied into the underlying writer before
// WriteFrame returns, so the caller may reuse it at once. It does not
// flush: a caller writing into a bufio.Writer can queue several frames
// and send them in one write.
func (fw *Writer) WriteFrame(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameBytes {
		return fmt.Errorf("frame: payload of %d bytes outside (0, %d]", len(payload), maxFrameBytes)
	}
	hdr := fw.hdr[:]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.Checksum(hdr[:8], castagnoli))
	if _, err := fw.w.Write(hdr); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	if _, err := fw.w.Write(payload); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	if fw.frames != nil {
		fw.frames.Inc()
		fw.bytes.Add(uint64(headerSize + len(payload)))
	}
	return nil
}

// Reader reads frames — the receive half of Writer. The header check and
// the length bound come before any allocation; the payload's CRC-32C is
// verified before a decoder sees a byte; the payload buffer is reused
// across frames, so a payload is valid until the next read.
//
// Errors latch: a framed stream has no resynchronization point, so once
// any read fails — header, length or checksum — every later ReadFrame
// returns the same error rather than risking misattributed frames.
//
// Not safe for concurrent use; one goroutine reads per connection.
type Reader struct {
	r       io.Reader
	hdr     [headerSize]byte // a field, not a local: io.ReadFull would move it to the heap per frame
	payload []byte
	err     error         // first failure; the stream is dead after one
	frames  *obsv.Counter // optional; see Instrument
	nbytes  *obsv.Counter
}

// Instrument counts every fully read frame and its wire bytes (header
// included) on the given counters. Call it before the reader carries
// traffic; both counters must be non-nil together.
func (fr *Reader) Instrument(frames, bytes *obsv.Counter) {
	fr.frames, fr.nbytes = frames, bytes
}

// NewReader returns a frame reader for one connection's inbound stream.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads one frame and returns its checksum-verified payload. A
// clean connection close between frames surfaces as io.EOF exactly. The
// payload aliases the reader's buffer and is valid only until the next
// ReadFrame.
func (fr *Reader) ReadFrame() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	payload, err := fr.readPayload()
	fr.err = err
	return payload, err
}

// readPayload is the framing routine under ReadFrame: read
// and verify the header, bounds-check the length before sizing any buffer,
// read the body and verify its CRC-32C. An outsized buffer is unpinned
// from the reader here; the returned slice keeps it alive only as long as
// the caller holds it.
func (fr *Reader) readPayload() ([]byte, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return nil, err // io.EOF signals a clean close between frames
	}
	if got, want := crc32.Checksum(hdr[:8], castagnoli), binary.BigEndian.Uint32(hdr[8:12]); got != want {
		return nil, fmt.Errorf("frame: header checksum %08x, want %08x (corrupt stream)", got, want)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("frame: length %d outside (0, %d]", n, maxFrameBytes)
	}
	if uint32(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	payload := fr.payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("frame: read body: %w", err)
	}
	if fr.frames != nil {
		fr.frames.Inc()
		fr.nbytes.Add(uint64(headerSize) + uint64(n))
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("frame: payload checksum %08x, want %08x (corrupt stream)", got, sum)
	}
	if cap(fr.payload) > retainFrameBytes {
		fr.payload = nil // release the outsized backing array after this frame
	}
	return payload, nil
}
