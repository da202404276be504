package cluster

import (
	"time"

	"smartexp3/internal/frame"
)

// Options configures a coordinator Session.
type Options struct {
	// ChunkSize is the number of runs per dispatched range; 0 picks a size
	// that gives every shard several ranges (dynamic load balancing and a
	// small reassignment unit on failure).
	ChunkSize int
	// FrameTimeout bounds how long a worker may go without producing the
	// next protocol frame while one is owed (handshake reply, result, range
	// ack, keepalive pong); 0 means frame.DefaultTimeout (2 minutes),
	// negative disables it (and with it the default keepalive). It is a
	// progress timeout, not a whole-chunk budget: a chunk may take
	// arbitrarily long as long as results keep flowing. A worker that
	// stalls without closing its connection (SIGSTOP, half-open partition)
	// trips it and takes the reassignment path instead of hanging the
	// batch. It fires no sooner than FrameTimeout after the frame became
	// owed or the last one arrived, and at most 1/16 later. While nothing
	// is owed — a session idling between batches — no deadline is armed
	// at all, so an idle gap of any length never counts as a stall.
	FrameTimeout time.Duration
	// Keepalive is how often an idle session connection is pinged; 0 means
	// a quarter of the frame timeout. Pings elicit pongs under FrameTimeout,
	// so a silently dead worker is noticed between batches. Pings are
	// suppressed while ranges are in flight (results are the liveness
	// signal there).
	Keepalive time.Duration
	// LocalWorkers bounds the parallelism of in-process execution — a
	// session with no shards and the all-workers-dead rescue path; 0 or
	// less means GOMAXPROCS.
	LocalWorkers int
	// Logf, when non-nil, receives shard-failure, reconnect and
	// reassignment lines. Failures are expected operational events (that is
	// what reassignment is for), so they are reported here rather than as
	// errors.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, counts session activity (jobs, chunks,
	// reconnects, dispatch latency) — a NewSessionMetrics set registered
	// on an obsv.Registry. Observation-only: instrumentation never changes
	// a seed, a chunk boundary or a merge order.
	Metrics *SessionMetrics
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) keepalive() time.Duration {
	if o.Keepalive > 0 {
		return o.Keepalive
	}
	return frame.Timeout(o.FrameTimeout) / 4
}

// chunkSize picks the dispatch granularity: roughly four ranges per shard,
// so the fastest worker can steal work from the slowest and a failure only
// forfeits a fraction of a shard's share.
func chunkSize(requested, runs, shards int) int {
	if requested > 0 {
		return requested
	}
	chunk := runs / (4 * shards)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}
