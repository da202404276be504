package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"smartexp3/internal/obsv"
)

func clusterVarz(t *testing.T, reg *obsv.Registry) map[string]any {
	t.Helper()
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obsv.CheckPrometheusText(strings.NewReader(prom.String())); err != nil {
		t.Fatalf("malformed metrics: %v\n%s", err, prom.String())
	}
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]any)
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionAndWorkerMetrics runs a real loopback session with both ends
// instrumented and checks the counters agree with the work done — and that
// the instrumented aggregate still matches the in-process reference, the
// observation-only contract in action.
func TestSessionAndWorkerMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	wm := NewWorkerMetrics(reg)
	sm := NewSessionMetrics(reg)

	addr, _ := startCountingWorker(t, WorkerOptions{Workers: 2, Metrics: wm})
	s := NewSession([]string{addr}, Options{ChunkSize: 3, Logf: t.Logf, Metrics: sm})
	defer s.Close()

	const runs = 12
	job := sessionJob(t, runs, 1)
	want := inProcessWant(t, job)
	merge, got := fingerprint()
	if err := s.Run(job, merge); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatal("instrumented session differs from the in-process aggregate")
	}

	m := clusterVarz(t, reg)
	nChunks := (runs + 2) / 3
	if v := m["cluster_session_jobs_total"].(float64); v != 1 {
		t.Errorf("session jobs = %v, want 1", v)
	}
	if v := m["cluster_session_chunks_total"].(float64); v != float64(nChunks) {
		t.Errorf("session chunks = %v, want %d", v, nChunks)
	}
	if v := m["cluster_session_jobs_failed_total"].(float64); v != 0 {
		t.Errorf("session failed jobs = %v, want 0", v)
	}
	if v := m["cluster_worker_sessions_total"].(float64); v != 1 {
		t.Errorf("worker sessions = %v, want 1", v)
	}
	if v := m["cluster_worker_jobs_total"].(float64); v != 1 {
		t.Errorf("worker jobs = %v, want 1", v)
	}
	if v := m["cluster_worker_runs_total"].(float64); v != runs {
		t.Errorf("worker runs = %v, want %d", v, runs)
	}
	if v := m["cluster_worker_ranges_total"].(float64); v != float64(nChunks) {
		t.Errorf("worker ranges = %v, want %d", v, nChunks)
	}
	// Both directions of the wire saw at least the handshake and one frame
	// per range (the range itself, or its RangeDone).
	floor := float64(1 + nChunks)
	for _, name := range []string{
		"cluster_session_frames_written_total", "cluster_worker_frames_read_total",
		"cluster_session_frames_read_total", "cluster_worker_frames_written_total",
	} {
		if v := m[name].(float64); v < floor {
			t.Errorf("%s = %v, want >= %v", name, v, floor)
		}
	}
	if m["cluster_session_bytes_read_total"].(float64) <= 0 || m["cluster_worker_bytes_written_total"].(float64) <= 0 {
		t.Error("byte counters empty")
	}
	disp := m["cluster_session_dispatch_ns"].(map[string]any)
	if disp["count"].(float64) != float64(nChunks) {
		t.Errorf("dispatch latency samples = %v, want %d", disp["count"], nChunks)
	}
	rng := m["cluster_worker_range_ns"].(map[string]any)
	if rng["count"].(float64) != float64(nChunks) {
		t.Errorf("range latency samples = %v, want %d", rng["count"], nChunks)
	}
}
