package cluster

// The cluster session protocol rides internal/frame: a frame.Conn per
// worker connection, the shared hello exchange, and gob-encoded envelopes
// through the frame layer's persistent per-connection codec. The frame
// layer's payload and header checksums are what the chaos determinism
// guarantee rests on — a faulted session decides exactly like a clean one
// because corruption always surfaces as a connection error, never as
// silently different numbers (gob alone would decode a flipped byte inside
// a float into a different value).

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
// and added the frame header's own checksum.
const protocolVersion = 4

// hello is this protocol's side of the shared handshake.
var hello = frame.Hello{Proto: "cluster", Version: protocolVersion}

// envelope is the one-of union every frame carries: exactly one field is
// non-nil. gob encodes nil pointers as absent, so the frame overhead of the
// union is negligible, and a single stream can carry every message type
// without out-of-band tagging.
type envelope struct {
	Job        *jobMsg
	JobAck     *jobAckMsg
	Range      *rangeMsg
	RunResult  *runResultMsg
	RangeDone  *rangeDoneMsg
	Ping       *pingMsg
	Pong       *pongMsg
	JobRelease *jobReleaseMsg
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

// readEnvelope decodes the next envelope from c. Each frame decodes into a
// fresh envelope: gob leaves fields absent from the stream untouched, so a
// reused one would carry the previous frame's message along.
func readEnvelope(c *frame.Conn) (*envelope, error) {
	var env envelope
	if err := c.Decode(&env); err != nil {
		return nil, err
	}
	return &env, nil
}
