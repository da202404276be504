package cluster

// The cluster session protocol rides internal/frame: a frame.Conn per
// worker connection, opened by the shared hello exchange, carrying one
// fixed-layout payload per frame, encoded and decoded by codec.go without
// reflection. A payload is one tag byte naming the message, then its
// fields in declaration order in the frame layer's field encodings
// (frame.PayloadReader): canonical uvarints for ids and sequence numbers,
// canonical zigzag varints for run indices and every other signed
// integer, the 8 little-endian bytes of each float's IEEE-754 bits,
// length-prefixed strings and lists, and a 0/1 presence byte for every
// boolean and for the optional *criteria.Profile and *sim.Result. The
// layout is canonical: a payload decodes only if re-encoding the result
// reproduces it byte for byte.
//
// A range is self-describing: a Range carries its job id, First and
// Count, the job's seeding (Runs, Seed, Stream) and, as the rest of the
// payload, the job's sim.Config in appendConfig's layout. The coordinator
// encodes a job's config once, when the job registers, and every range of
// the job carries those bytes; the worker keys its engine cache by them
// (an entry holds the compiled engine or the compile error) and decodes
// and compiles a config only on a miss. The config leaves out
// the five fields Shardable names — WiFiDelay, CellularDelay,
// PolicyFactory, Core and Seed — which a decoded config holds zero; the
// worker's sim.NewEngine fills in the same defaults an in-process run
// applies. A RunResult carries every sim.Result field.
//
// The frame layer's payload and header checksums are what the chaos
// determinism guarantee rests on — a faulted session decides exactly like
// a clean one because corruption always surfaces as a connection error,
// never as silently different numbers: a flipped bit inside a float's
// eight bytes is still a well-formed payload, and only the CRC-32C stops
// it from decoding into a different value.

import (
	"smartexp3/internal/frame"
	"smartexp3/internal/sim"
)

// protocolVersion is bumped whenever the frame layout or message set changes
// incompatibly. Coordinator and worker refuse to pair across versions, so a
// stale shardd binary fails loudly at handshake instead of corrupting a
// batch. Version 2 introduced persistent sessions: job multiplexing by id,
// keepalive ping/pong, and job release. Version 3 added the per-frame
// CRC-32C. Version 4 moved the handshake to the frame layer's shared hello
// and added the frame header's own checksum. Version 5 replaced gob with
// the fixed-layout payloads above. Version 6 made a range self-describing
// and dropped job registration, its acknowledgement and its release.
const protocolVersion = 6

// hello is this protocol's side of the shared handshake.
var hello = frame.Hello{Proto: "cluster", Version: protocolVersion}

// msgTag is a payload's first byte: which message the rest encodes.
type msgTag byte

const (
	tagRange msgTag = 1 + iota
	tagRunResult
	tagRangeDone
	tagPing
	tagPong
)

// message is one cluster payload, decoded or about to be encoded: tag names
// the live field. Each connection loop decodes every inbound frame into
// the same message; only a result's *sim.Result, which outlives the frame,
// is allocated per message.
type message struct {
	tag       msgTag
	rng       rangeMsg
	result    runResultMsg
	rangeDone rangeDoneMsg
	ping      pingMsg
	pong      pongMsg

	// r is decode's cursor. It lives here, not on decode's stack, because
	// the list decoders it is handed to are called through function
	// values, which would move a local cursor to the heap on every frame.
	r frame.PayloadReader
}

// rangeMsg assigns the global run indices [First, First+Count) of job Job
// to the worker and carries everything the worker needs to run them: the
// job's seeding and its encoded config. Workers execute ranges strictly in
// arrival order, which is what lets the coordinator attribute the result
// stream to its in-flight ranges without per-result routing state. Several
// jobs may have ranges on one connection at once — that is what lets
// pipelined batches interleave on one stream.
type rangeMsg struct {
	Job    uint64
	First  int
	Count  int
	Runs   int
	Seed   int64
	Stream []int64
	// Config is the job's sim.Config in appendConfig's layout, the rest of
	// the payload. In a decoded message it aliases the frame buffer and is
	// valid until the next read. Two configs with the same bytes compile
	// to interchangeable engines, so the worker keys its engine cache by
	// them.
	Config []byte
}

// runResultMsg streams one replication's result back. Workers emit results
// in ascending run order within a range. Every float crosses the wire as
// its exact bits, which is what keeps remote aggregates byte-identical to
// in-process ones.
type runResultMsg struct {
	Job uint64
	Run int
	Res *sim.Result
}

// rangeDoneMsg acknowledges a completed range. A non-empty Err means the
// job itself failed — its config did not compile, or the simulation
// failed — a deterministic job error the coordinator must surface, not a
// transport failure it may retry.
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
