package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"smartexp3/internal/obsv"
	"smartexp3/internal/sim"
)

// protocolVersion is bumped whenever the frame layout or message set changes
// incompatibly. Coordinator and worker refuse to pair across versions, so a
// stale shardd binary fails loudly at handshake instead of corrupting a
// batch. Version 2 introduced persistent sessions: job multiplexing by id,
// keepalive ping/pong, and job release. Version 3 added the per-frame
// CRC-32C to the frame header: gob detects most stream corruption but not
// all of it (a flipped byte inside a float payload can decode cleanly to a
// different value), and the chaos layer's determinism guarantee — a faulted
// session decides exactly like a clean one — needs corruption to surface as
// a connection error every time, never as silently different numbers.
const protocolVersion = 3

// maxFrameBytes bounds a single frame. A per-run Result frame is dominated
// by the optional per-slot series (Distance, GroupDistance, Selections,
// Bitrates), which stay well under this for any configuration the
// experiments run; the cap exists so a corrupt or hostile length prefix
// cannot make a peer allocate unbounded memory.
const maxFrameBytes = 64 << 20

// envelope is the one-of union every frame carries: exactly one field is
// non-nil. gob encodes nil pointers as absent, so the frame overhead of the
// union is negligible, and a single stream can carry every message type
// without out-of-band tagging.
type envelope struct {
	Hello      *helloMsg
	HelloAck   *helloAckMsg
	Job        *jobMsg
	JobAck     *jobAckMsg
	Range      *rangeMsg
	RunResult  *runResultMsg
	RangeDone  *rangeDoneMsg
	Ping       *pingMsg
	Pong       *pongMsg
	JobRelease *jobReleaseMsg
}

// helloMsg opens a coordinator → worker session. One session carries any
// number of jobs over its lifetime.
type helloMsg struct {
	Version int
}

// helloAckMsg accepts or rejects the session.
type helloAckMsg struct {
	Version int
	Err     string
}

// jobMsg ships one batch descriptor under a session-unique id: the worker
// compiles it into a sim.Engine once and serves every subsequent range
// carrying the same id against it. A session may hold several compiled jobs
// at once — that is what lets pipelined batches interleave on one stream.
type jobMsg struct {
	ID   uint64
	Spec JobSpec
}

// jobAckMsg reports whether the descriptor compiled. A non-empty Err is a
// property of the job, not the worker (every worker validates the same
// descriptor), so the coordinator fails the job without retiring the
// session.
type jobAckMsg struct {
	ID  uint64
	Err string
}

// rangeMsg assigns the global run indices [First, First+Count) of job Job
// to the worker. Workers execute ranges strictly in arrival order, which is
// what lets the coordinator attribute the result stream to its in-flight
// ranges without per-result routing state.
type rangeMsg struct {
	Job   uint64
	First int
	Count int
}

// runResultMsg streams one replication's result back. Workers emit results
// in ascending run order within a range. sim.Result is plain exported data
// (no interfaces, no functions), so it crosses the wire as-is; gob encodes
// float64 bits exactly, which is what keeps remote aggregates byte-identical
// to in-process ones.
type runResultMsg struct {
	Job uint64
	Run int
	Res *sim.Result
}

// rangeDoneMsg acknowledges a completed range. A non-empty Err means the
// simulation itself failed — a deterministic job error the coordinator must
// surface, not a transport failure it may retry.
type rangeDoneMsg struct {
	Job   uint64
	First int
	Err   string
}

// pingMsg is the coordinator's keepalive probe, sent only while a session is
// idle (no range in flight): it elicits a pong under the frame timeout, so a
// silently dead connection is discovered between batches instead of at the
// next dispatch.
type pingMsg struct {
	Seq uint64
}

// pongMsg answers a ping.
type pongMsg struct {
	Seq uint64
}

// jobReleaseMsg retires a job id the coordinator has finished with, freeing
// the worker's compiled engine and pooled workspaces for it. There is no
// reply; ids are session-unique and never reused.
type jobReleaseMsg struct {
	ID uint64
}

// frameHeaderSize is the fixed per-frame header: a 4-byte big-endian payload
// length followed by the payload's CRC-32C. The checksum is the transport's
// corruption firewall: a frame whose bytes were damaged in flight fails the
// CRC before the gob decoder ever sees them, so corruption is always a
// (retryable) connection error and never a silently different value.
const frameHeaderSize = 8

// castagnoli is the CRC-32C table, computed once; crc32.Checksum with a
// prepared table is allocation-free and hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// retainFrameBytes is the high-water mark above which the persistent codec
// buffers are released after an outsized frame instead of staying pinned
// for the connection's (potentially very long) lifetime. One multi-MB
// result frame early in a session must not hold that memory through
// hundreds of small batches on every connection end.
const retainFrameBytes = 1 << 20

// FrameWriter emits length-prefixed frames through one persistent gob
// encoder. Codec state is per connection, not per frame: gob sends each
// type descriptor once per stream, so a session's thousandth result frame
// carries only values — re-encoding descriptors per frame used to dominate
// the per-batch dispatch cost (gob compileDec/sendActualType in profiles).
// A reconnect builds a fresh writer on both sides, so reassigned ranges
// still replay cleanly with no shared state to reconstruct.
//
// The framing is message-type agnostic. Encode takes any value gob
// accepts, so internal/fleet's control wire reuses it with its own
// envelope; WriteFrame carries a payload the caller encoded itself, so
// internal/serve's decision wire shares the framing and its length and
// checksum hygiene without paying for gob.
//
// Not safe for concurrent use; callers serialize writes per connection.
type FrameWriter struct {
	w      io.Writer
	buf    frameBuf // one frame under construction: 4-byte prefix + gob bytes
	enc    *gob.Encoder
	hdr    [frameHeaderSize]byte // WriteFrame's header scratch
	frames *obsv.Counter         // optional; see Instrument
	bytes  *obsv.Counter
}

// Instrument counts every successfully written frame and its wire bytes
// (header included) on the given counters. Call it before the writer
// carries traffic; both counters must be non-nil together.
func (fw *FrameWriter) Instrument(frames, bytes *obsv.Counter) {
	fw.frames, fw.bytes = frames, bytes
}

// frameBuf is the io.Writer the gob encoder targets: it appends into a
// reusable slice. An indirection rather than a bytes.Buffer so the backing
// array can be dropped after an outsized frame without disturbing the
// encoder's stream state, and so FrameWriter exposes no public Write.
type frameBuf struct{ b []byte }

func (fb *frameBuf) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

// NewFrameWriter returns a frame writer whose codec state lives for the
// whole connection. Pair it with a NewFrameReader on the receiving side.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{w: w}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// Encode writes msg as one frame: a 4-byte big-endian length prefix, the
// payload's CRC-32C, and the gob bytes of exactly one Encode call (which may
// bundle type descriptors ahead of the value — the matching Decode consumes
// them all).
func (fw *FrameWriter) Encode(msg any) error {
	fw.buf.b = append(fw.buf.b[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	if err := fw.enc.Encode(msg); err != nil {
		return fmt.Errorf("cluster: encode frame: %w", err)
	}
	b := fw.buf.b
	if err := putFrameHeader(b[:frameHeaderSize], b[frameHeaderSize:]); err != nil {
		return err
	}
	if cap(fw.buf.b) > retainFrameBytes {
		fw.buf.b = nil // release the outsized backing array after this frame
	}
	if _, err := fw.w.Write(b); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	fw.count(len(b))
	return nil
}

// WriteFrame writes payload as one frame under the same header, cap and
// checksum as Encode, bypassing gob: it is the carrier for daemons with
// their own fixed-layout codec (internal/serve). The payload is copied
// into the underlying writer before WriteFrame returns, so the caller may
// reuse it at once. Like Encode it does not flush: a caller writing into a
// bufio.Writer can queue several frames and send them in one write.
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	if err := putFrameHeader(fw.hdr[:], payload); err != nil {
		return err
	}
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	if _, err := fw.w.Write(payload); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	fw.count(frameHeaderSize + len(payload))
	return nil
}

// putFrameHeader fills hdr with payload's length and CRC-32C, refusing a
// payload the reader's bounds check would reject.
func putFrameHeader(hdr, payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameBytes {
		return fmt.Errorf("cluster: frame of %d bytes outside (0, %d]", len(payload), maxFrameBytes)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return nil
}

func (fw *FrameWriter) count(n int) {
	if fw.frames != nil {
		fw.frames.Inc()
		fw.bytes.Add(uint64(n))
	}
}

// write encodes one cluster envelope (the package's own protocol).
//
//repolint:ignore wiredeadline transport-agnostic codec: every caller arms a per-frame deadline (epoch.write, the worker flush closure, the fleet send closures), pinned by the coordinator/worker deadline regression tests
func (fw *FrameWriter) write(env *envelope) error { return fw.Encode(env) }

// FrameReader reads length-prefixed, checksummed frames, either through one
// persistent gob decoder (Decode) or as raw payloads (ReadFrame) — the
// receive half of FrameWriter's contract. The length prefix is read and
// bounds-checked before any allocation, preserving the maxFrameBytes
// guarantee; the payload's CRC-32C is verified before the decoder sees a
// byte; the payload buffer is reused across frames (gob copies decoded
// values out; a ReadFrame payload is valid until the next read).
//
// Errors latch: a framed stream has no resynchronization point, so once
// any read fails — framing, checksum or gob — every later Decode or
// ReadFrame returns the same error rather than risking misattributed
// frames.
//
// Not safe for concurrent use; one goroutine reads per connection.
type FrameReader struct {
	r       io.Reader
	hdr     [frameHeaderSize]byte // a field, not a local: io.ReadFull would move it to the heap per frame
	payload []byte
	cur     bytes.Reader
	dec     *gob.Decoder
	err     error         // first failure; the stream is dead after one
	frames  *obsv.Counter // optional; see Instrument
	nbytes  *obsv.Counter
}

// Instrument counts every fully read frame and its wire bytes (header
// included) on the given counters. Call it before the reader carries
// traffic; both counters must be non-nil together.
func (fr *FrameReader) Instrument(frames, bytes *obsv.Counter) {
	fr.frames, fr.nbytes = frames, bytes
}

// NewFrameReader returns a frame reader for one connection's inbound
// stream. See NewFrameWriter.
func NewFrameReader(r io.Reader) *FrameReader {
	fr := &FrameReader{r: r}
	// bytes.Reader implements io.ByteReader, so gob adds no buffering of
	// its own and each Decode consumes exactly the bytes we hand it.
	fr.dec = gob.NewDecoder(&fr.cur)
	return fr
}

// Decode reads one frame and decodes it into msg (a pointer, as for
// gob.Decoder.Decode). A clean connection close between frames surfaces as
// io.EOF exactly. Any failure is latched: the stream is unusable afterwards.
func (fr *FrameReader) Decode(msg any) error {
	if fr.err != nil {
		return fr.err
	}
	if err := fr.decode(msg); err != nil {
		fr.err = err
		return err
	}
	return nil
}

func (fr *FrameReader) decode(msg any) error {
	payload, err := fr.readPayload()
	if err != nil {
		return err
	}
	fr.cur.Reset(payload)
	if err := fr.dec.Decode(msg); err != nil {
		return fmt.Errorf("cluster: decode frame: %w", err)
	}
	if fr.cur.Len() != 0 {
		return fmt.Errorf("cluster: frame has %d trailing bytes after its message", fr.cur.Len())
	}
	if fr.payload == nil {
		fr.cur.Reset(nil) // drop the last reference to the outsized array now
	}
	return nil
}

// ReadFrame reads one frame and returns its checksum-verified payload,
// bypassing gob: the receive half of WriteFrame. The payload aliases the
// reader's buffer and is valid only until the next ReadFrame or Decode.
// Framing, bounds, checksum and error latching are exactly Decode's.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	payload, err := fr.readPayload()
	if err != nil {
		fr.err = err
		return nil, err
	}
	return payload, nil
}

// readPayload is the one framing routine under Decode and ReadFrame: read
// the header, bounds-check the length before sizing any buffer, read the
// body and verify its CRC-32C. An outsized buffer is unpinned from the
// reader here; the returned slice keeps it alive only as long as the
// caller holds it.
func (fr *FrameReader) readPayload() ([]byte, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return nil, err // io.EOF signals a clean close between frames
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("cluster: frame length %d outside (0, %d]", n, maxFrameBytes)
	}
	if uint32(cap(fr.payload)) < n {
		fr.payload = make([]byte, n)
	}
	payload := fr.payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	if fr.frames != nil {
		fr.frames.Inc()
		fr.nbytes.Add(uint64(frameHeaderSize) + uint64(n))
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("cluster: frame checksum %08x, want %08x (corrupt stream)", got, sum)
	}
	if cap(fr.payload) > retainFrameBytes {
		fr.payload = nil // release the outsized backing array after this frame
	}
	return payload, nil
}

// read reads and decodes one cluster envelope (the package's own protocol).
func (fr *FrameReader) read() (*envelope, error) {
	var env envelope
	if err := fr.Decode(&env); err != nil {
		return nil, err
	}
	return &env, nil
}
