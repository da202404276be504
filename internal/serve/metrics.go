package serve

import (
	"fmt"

	"smartexp3/internal/obsv"
)

// shardStats are one shard's request counters. They are plain integers
// mutated only under the shard mutex that the hot path already holds — a
// counted Select costs an increment, not an atomic — and summed under the
// same mutexes at scrape time, so scrapes racing traffic still read
// consistent values.
type shardStats struct {
	selects   uint64
	feedbacks uint64
	dedupHits uint64
}

// storeMetrics is the store's instrumentation, present only after
// Instrument. The hot path guards every record behind one nil check, so an
// uninstrumented store pays a predictable branch per request and nothing
// else.
type storeMetrics struct {
	selectLatency *obsv.Histogram
}

// selectSampleMask samples 1 in 64 Selects for the latency histogram: the
// two clock reads a timed Select costs (~50 ns) would be half again the
// ~104 ns warm path if taken every time, but amortized over 64 requests
// they disappear while p50/p99/p999 stay statistically sound at any
// realistic traffic rate.
const selectSampleMask = 63

// Instrument registers the store's metrics on reg and enables hot-path
// counting. Call it before the store serves traffic (metrics enablement is
// not synchronized with requests); instrumenting a store twice or on two
// registries panics via the registry's duplicate-name check.
//
// The registered names: serve_select_total, serve_feedback_applied_total,
// serve_select_dedup_total, serve_feedback_dropped_total,
// serve_devices_evicted_total, serve_devices, serve_shard_devices{shard=N},
// and the serve_select_latency_ns histogram.
func (s *Store) Instrument(reg *obsv.Registry) {
	if s.m != nil {
		panic("serve: store instrumented twice")
	}
	m := &storeMetrics{
		selectLatency: reg.Histogram("serve_select_latency_ns",
			"Sampled in-store Select service time (shard-map lookup + policy draw, lock wait excluded), 1 in 64 requests"),
	}
	sumShards := func(pick func(*shardStats) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				n += pick(&sh.stats)
				sh.mu.Unlock()
			}
			return float64(n)
		}
	}
	reg.CounterFunc("serve_select_total",
		"Select requests answered", sumShards(func(st *shardStats) uint64 { return st.selects }))
	reg.CounterFunc("serve_feedback_applied_total",
		"Feedback reports applied to a pending selection", sumShards(func(st *shardStats) uint64 { return st.feedbacks }))
	reg.CounterFunc("serve_select_dedup_total",
		"Selects answered idempotently from the pending slot (lost-response retries)", sumShards(func(st *shardStats) uint64 { return st.dedupHits }))
	reg.CounterFunc("serve_feedback_dropped_total",
		"Feedback reports and abandoned selections discarded for not matching a pending slot",
		func() float64 { return float64(s.Dropped()) })
	reg.CounterFunc("serve_devices_evicted_total",
		"Device sessions retired by idle-eviction sweeps",
		func() float64 { return float64(s.Evicted()) })
	reg.GaugeFunc("serve_devices", "Active device sessions",
		func() float64 { return float64(s.Devices()) })
	for i := range s.shards {
		sh := &s.shards[i]
		reg.GaugeFunc(fmt.Sprintf(`serve_shard_devices{shard="%d"}`, i),
			"Active device sessions per shard", func() float64 {
				sh.mu.Lock()
				n := len(sh.devices)
				sh.mu.Unlock()
				return float64(n)
			})
	}
	s.m = m
}

// ClientMetrics are serve.Client's resilience counters. A client always
// has a set (unregistered when the caller never wires a registry), so the
// public accessors read the same counters either way; NewClientMetrics
// makes one whose counters are exported, to share across the redials of
// one logical client.
type ClientMetrics struct {
	Reconnects      *obsv.Counter // connections established after the first
	Redials         *obsv.Counter // dial attempts after a connection was lost
	FeedbackResent  *obsv.Counter // unconfirmed feedback items queued again after a drop
	DroppedFeedback *obsv.Counter // feedback items discarded at the buffer cap
}

// newClientMetrics returns an unregistered set — the default when
// ClientOptions.Metrics is nil, keeping accessor reads valid at zero cost.
func newClientMetrics() *ClientMetrics {
	return &ClientMetrics{
		Reconnects:      new(obsv.Counter),
		Redials:         new(obsv.Counter),
		FeedbackResent:  new(obsv.Counter),
		DroppedFeedback: new(obsv.Counter),
	}
}

// NewClientMetrics registers the client counter set on reg.
func NewClientMetrics(reg *obsv.Registry) *ClientMetrics {
	return &ClientMetrics{
		Reconnects:      reg.Counter("serve_client_reconnects_total", "Connections established after the first"),
		Redials:         reg.Counter("serve_client_redials_total", "Dial attempts made after losing a connection"),
		FeedbackResent:  reg.Counter("serve_client_feedback_resent_total", "Unconfirmed feedback items requeued after a connection drop"),
		DroppedFeedback: reg.Counter("serve_client_feedback_dropped_total", "Feedback items discarded at the client buffer cap"),
	}
}

// ServerMetrics are the serve daemon's per-connection counters, shared by
// every connection the server accepts.
type ServerMetrics struct {
	Connections   *obsv.Counter
	Active        *obsv.Gauge
	FramesRead    *obsv.Counter
	FramesWritten *obsv.Counter
	BytesRead     *obsv.Counter
	BytesWritten  *obsv.Counter
}

// NewServerMetrics registers the server counter set on reg.
func NewServerMetrics(reg *obsv.Registry) *ServerMetrics {
	return &ServerMetrics{
		Connections:   reg.Counter("serve_connections_total", "Client connections accepted (reconnects appear as extra accepts)"),
		Active:        reg.Gauge("serve_connections_active", "Client connections currently open"),
		FramesRead:    reg.Counter("serve_frames_read_total", "Request frames decoded"),
		FramesWritten: reg.Counter("serve_frames_written_total", "Response frames encoded"),
		BytesRead:     reg.Counter("serve_bytes_read_total", "Wire bytes read from clients"),
		BytesWritten:  reg.Counter("serve_bytes_written_total", "Wire bytes written to clients"),
	}
}
