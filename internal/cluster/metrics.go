package cluster

import "smartexp3/internal/obsv"

// SessionMetrics are the coordinator side's counters, shared by every
// worker connection a Session holds. All records sit on control paths
// (dial, dispatch, requeue, result delivery) — never inside a replication
// — so instrumentation cannot perturb the determinism contract.
type SessionMetrics struct {
	Jobs             *obsv.Counter
	JobsFailed       *obsv.Counter
	Chunks           *obsv.Counter
	ChunksReassigned *obsv.Counter
	Reconnects       *obsv.Counter
	Pings            *obsv.Counter
	FramesRead       *obsv.Counter
	FramesWritten    *obsv.Counter
	BytesRead        *obsv.Counter
	BytesWritten     *obsv.Counter
	// DispatchLatency is the send-to-RangeDone round trip of a chunk, in
	// nanoseconds: queueing at the worker plus the chunk's whole execution,
	// the figure per-batch dispatch overhead is judged by.
	DispatchLatency *obsv.Histogram
}

// NewSessionMetrics registers the coordinator counter set on reg.
func NewSessionMetrics(reg *obsv.Registry) *SessionMetrics {
	return &SessionMetrics{
		Jobs:             reg.Counter("cluster_session_jobs_total", "Jobs registered on the session"),
		JobsFailed:       reg.Counter("cluster_session_jobs_failed_total", "Jobs that ended in an error"),
		Chunks:           reg.Counter("cluster_session_chunks_total", "Seed-range chunks completed (remote and local rescue)"),
		ChunksReassigned: reg.Counter("cluster_session_chunks_reassigned_total", "Chunks requeued after a worker failure"),
		Reconnects:       reg.Counter("cluster_session_reconnects_total", "Worker connections re-established after the first"),
		Pings:            reg.Counter("cluster_session_pings_total", "Keepalive pings sent to idle workers"),
		FramesRead:       reg.Counter("cluster_session_frames_read_total", "Frames decoded from workers"),
		FramesWritten:    reg.Counter("cluster_session_frames_written_total", "Frames encoded to workers"),
		BytesRead:        reg.Counter("cluster_session_bytes_read_total", "Wire bytes read from workers"),
		BytesWritten:     reg.Counter("cluster_session_bytes_written_total", "Wire bytes written to workers"),
		DispatchLatency:  reg.Histogram("cluster_session_dispatch_ns", "Chunk send-to-done round trip in nanoseconds"),
	}
}

// WorkerMetrics are the worker daemon's counters, shared by every session
// a shardd process serves.
type WorkerMetrics struct {
	Sessions *obsv.Counter
	// Jobs counts engines compiled: one per distinct config a connection
	// receives, plus one per config compiled again after its engine was
	// evicted from the connection's cache. JobsRejected counts configs
	// that decoded but did not compile, by the same rule: the refusal is
	// cached beside the engines, so later ranges of the same config are
	// answered from it.
	Jobs          *obsv.Counter
	JobsRejected  *obsv.Counter
	Ranges        *obsv.Counter
	Runs          *obsv.Counter
	Pongs         *obsv.Counter
	FramesRead    *obsv.Counter
	FramesWritten *obsv.Counter
	BytesRead     *obsv.Counter
	BytesWritten  *obsv.Counter
	// RangeLatency is one range's execution time in nanoseconds (compile
	// excluded; engines are cached by config).
	RangeLatency *obsv.Histogram
}

// NewWorkerMetrics registers the worker counter set on reg.
func NewWorkerMetrics(reg *obsv.Registry) *WorkerMetrics {
	return &WorkerMetrics{
		Sessions:      reg.Counter("cluster_worker_sessions_total", "Coordinator sessions accepted"),
		Jobs:          reg.Counter("cluster_worker_jobs_total", "Engines compiled from range configs"),
		JobsRejected:  reg.Counter("cluster_worker_jobs_rejected_total", "Distinct range configs that failed to compile"),
		Ranges:        reg.Counter("cluster_worker_ranges_total", "Seed ranges executed"),
		Runs:          reg.Counter("cluster_worker_runs_total", "Replications executed"),
		Pongs:         reg.Counter("cluster_worker_pongs_total", "Keepalive pings answered"),
		FramesRead:    reg.Counter("cluster_worker_frames_read_total", "Frames decoded from coordinators"),
		FramesWritten: reg.Counter("cluster_worker_frames_written_total", "Frames encoded to coordinators"),
		BytesRead:     reg.Counter("cluster_worker_bytes_read_total", "Wire bytes read from coordinators"),
		BytesWritten:  reg.Counter("cluster_worker_bytes_written_total", "Wire bytes written to coordinators"),
		RangeLatency:  reg.Histogram("cluster_worker_range_ns", "Range execution time in nanoseconds"),
	}
}
