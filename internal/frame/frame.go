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
// Reader.ReadFrame carry raw bytes a protocol encoded itself: the serve
// and cluster fixed-layout codecs, built on the field encodings of
// payload.go. Writer.Encode and Reader.Decode carry gob values through one
// persistent codec per connection (the fleet control message set), built
// on first use, so a connection that never carries gob holds no gob state.
//
// The accept side is shared too: Listener is the accept loop under
// serve.Server and the fleet control plane, and Accept, under it and
// cluster.Serve, sleeps through transient failures.
package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

// retainFrameBytes is the high-water mark above which the persistent codec
// buffers are released after an outsized frame instead of staying pinned
// for the connection's (potentially very long) lifetime.
const retainFrameBytes = 1 << 20

// Writer emits frames. Its gob encoder is per connection, not per frame:
// gob sends each type descriptor once per stream, so a session's
// thousandth frame carries only values. A reconnect builds a fresh writer
// on both sides, so nothing is shared across connections. The encoder is
// built by the first Encode, so a writer that only carries raw payloads
// never holds gob state.
//
// Not safe for concurrent use; callers serialize writes per connection.
type Writer struct {
	w      io.Writer
	buf    frameBuf         // one gob frame under construction: header placeholder + gob bytes
	enc    *gob.Encoder     // built by the first Encode
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

// frameBuf is the io.Writer the gob encoder targets: it appends into a
// reusable slice, so the backing array can be dropped after an outsized
// frame without disturbing the encoder's stream state.
type frameBuf struct{ b []byte }

func (fb *frameBuf) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

// NewWriter returns a frame writer whose codec state lives for the whole
// connection. Pair it with a NewReader on the receiving side.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Encode writes msg as one frame whose payload is the gob bytes of exactly
// one Encode call (which may bundle type descriptors ahead of the value —
// the matching Decode consumes them all).
func (fw *Writer) Encode(msg any) error {
	if fw.enc == nil {
		fw.enc = gob.NewEncoder(&fw.buf)
	}
	fw.buf.b = append(fw.buf.b[:0], make([]byte, headerSize)...)
	if err := fw.enc.Encode(msg); err != nil {
		return fmt.Errorf("frame: encode: %w", err)
	}
	b := fw.buf.b
	if err := putHeader(b[:headerSize], b[headerSize:]); err != nil {
		return err
	}
	if cap(fw.buf.b) > retainFrameBytes {
		fw.buf.b = nil // release the outsized backing array after this frame
	}
	if _, err := fw.w.Write(b); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	fw.count(len(b))
	return nil
}

// WriteFrame writes payload as one frame, bypassing gob. The payload is
// copied into the underlying writer before WriteFrame returns, so the
// caller may reuse it at once. Like Encode it does not flush: a caller
// writing into a bufio.Writer can queue several frames and send them in
// one write.
func (fw *Writer) WriteFrame(payload []byte) error {
	if err := putHeader(fw.hdr[:], payload); err != nil {
		return err
	}
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	if _, err := fw.w.Write(payload); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	fw.count(headerSize + len(payload))
	return nil
}

// putHeader fills hdr with payload's length, its CRC-32C and the header's
// own CRC-32C, refusing a payload the reader's bounds check would reject.
func putHeader(hdr, payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameBytes {
		return fmt.Errorf("frame: payload of %d bytes outside (0, %d]", len(payload), maxFrameBytes)
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.Checksum(hdr[:8], castagnoli))
	return nil
}

func (fw *Writer) count(n int) {
	if fw.frames != nil {
		fw.frames.Inc()
		fw.bytes.Add(uint64(n))
	}
}

// Reader reads frames, either through one persistent gob decoder (Decode)
// or as raw payloads (ReadFrame) — the receive half of Writer. The header
// check and the length bound come before any allocation; the payload's
// CRC-32C is verified before a decoder sees a byte; the payload buffer is
// reused across frames (gob copies decoded values out; a ReadFrame payload
// is valid until the next read).
//
// Errors latch: a framed stream has no resynchronization point, so once
// any read fails — header, checksum or gob — every later Decode or
// ReadFrame returns the same error rather than risking misattributed
// frames.
//
// Not safe for concurrent use; one goroutine reads per connection.
type Reader struct {
	r       io.Reader
	hdr     [headerSize]byte // a field, not a local: io.ReadFull would move it to the heap per frame
	payload []byte
	cur     bytes.Reader
	dec     *gob.Decoder  // built by the first Decode
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

// Decode reads one frame and gob-decodes it into msg (a pointer, as for
// gob.Decoder.Decode). A clean connection close between frames surfaces as
// io.EOF exactly.
func (fr *Reader) Decode(msg any) error {
	payload, err := fr.ReadFrame()
	if err != nil {
		return err
	}
	if fr.dec == nil {
		// bytes.Reader implements io.ByteReader, so gob adds no buffering
		// of its own and each Decode consumes exactly the bytes we hand it.
		fr.dec = gob.NewDecoder(&fr.cur)
	}
	fr.cur.Reset(payload)
	if err := fr.dec.Decode(msg); err != nil {
		fr.err = fmt.Errorf("frame: decode: %w", err)
	} else if fr.cur.Len() != 0 {
		fr.err = fmt.Errorf("frame: %d trailing bytes after the message", fr.cur.Len())
	}
	if fr.payload == nil {
		fr.cur.Reset(nil) // drop the last reference to the outsized array now
	}
	return fr.err
}

// ReadFrame reads one frame and returns its checksum-verified payload,
// bypassing gob. The payload aliases the reader's buffer and is valid only
// until the next ReadFrame or Decode.
func (fr *Reader) ReadFrame() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	payload, err := fr.readPayload()
	fr.err = err
	return payload, err
}

// readPayload is the one framing routine under Decode and ReadFrame: read
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
