package serve

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"smartexp3/internal/chaos"
	"smartexp3/internal/obsv"
)

// varz renders reg as JSON and hands back the decoded map, failing the test
// on malformed Prometheus text along the way — every scrape in this file
// doubles as a validator run.
func scrape(t *testing.T, reg *obsv.Registry) map[string]any {
	t.Helper()
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obsv.CheckPrometheusText(strings.NewReader(prom.String())); err != nil {
		t.Fatalf("malformed /metrics output: %v\n%s", err, prom.String())
	}
	return varzMap(t, reg)
}

func varzMap(t *testing.T, reg *obsv.Registry) map[string]any {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]any)
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("varz not JSON: %v", err)
	}
	return out
}

// TestStoreInstrumentedWarmSelectDoesNotAllocate is the tentpole's perf
// contract: enabling metrics must not put an allocation back on the warm
// Select+Feedback path (the shard counters are plain increments under the
// already-held lock; the sampled latency probe is two clock reads and three
// atomic adds).
func TestStoreInstrumentedWarmSelectDoesNotAllocate(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2, EvictAfter: time.Hour})
	s.Instrument(obsv.NewRegistry())
	arms := []int{1, 2, 3, 4}
	drive(t, s, []uint64{6}, arms, 300)
	slot := 1000
	allocs := testing.AllocsPerRun(200, func() {
		arm, sl, err := s.Select(6, arms)
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(6, arm, sl, reward(6, arm, slot))
		slot++
	})
	if allocs > 0 {
		t.Fatalf("instrumented warm Select+Feedback allocates %.1f times per op, want 0", allocs)
	}
}

// TestStoreMetricsViaScrape drives known traffic — selects, feedback, a
// dedup retry, a dropped report, an eviction — and checks every counter
// lands on /metrics and /varz with the right value.
func TestStoreMetricsViaScrape(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestStore(t, Config{
		Shards:     2,
		EvictAfter: time.Minute,
		Clock:      func() time.Time { return now },
	})
	reg := obsv.NewRegistry()
	s.Instrument(reg)

	arms := []int{1, 2, 3}
	// 64 settled slots on one device: enough that the 1-in-64 latency
	// sampler fires at least once.
	var lastArm int
	var lastSlot uint64
	for i := 0; i < 64; i++ {
		arm, sl, err := s.Select(7, arms)
		if err != nil {
			t.Fatal(err)
		}
		lastArm, lastSlot = arm, sl
		if !s.Feedback(7, arm, sl, 0.5) {
			t.Fatalf("slot %d: feedback not applied", i)
		}
	}
	// A lost-response retry: two Selects, no feedback between them.
	if _, _, err := s.Select(7, arms); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Select(7, arms); err != nil {
		t.Fatal(err)
	}
	// A stale report: the settled slot from before cannot apply again.
	if s.Feedback(7, lastArm, lastSlot, 0.5) {
		t.Fatal("stale slot applied")
	}
	// Evict the idle device.
	now = now.Add(2 * time.Minute)
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d devices, want 1", n)
	}

	m := scrape(t, reg)
	for name, want := range map[string]float64{
		"serve_select_total":           66,
		"serve_feedback_applied_total": 64,
		"serve_select_dedup_total":     1,
		"serve_feedback_dropped_total": 1,
		"serve_devices_evicted_total":  1,
		"serve_devices":                0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	hist, ok := m["serve_select_latency_ns"].(map[string]any)
	if !ok || hist["count"].(float64) < 1 {
		t.Fatalf("serve_select_latency_ns has no samples: %v", m["serve_select_latency_ns"])
	}
	var shardSum float64
	for name, v := range m {
		if strings.HasPrefix(name, `serve_shard_devices{`) {
			shardSum += v.(float64)
		}
	}
	if shardSum != 0 {
		t.Fatalf("per-shard occupancy sums to %v after full eviction, want 0", shardSum)
	}
}

// TestServerMetricsCountTraffic runs real wire traffic against an
// instrumented server and checks connections and frames are counted.
func TestServerMetricsCountTraffic(t *testing.T) {
	reg := obsv.NewRegistry()
	store := newTestStore(t, Config{})
	store.Instrument(reg)
	sm := NewServerMetrics(reg)
	_, addr := startInstrumentedServer(t, store, sm)

	c := dialTest(t, addr)
	arms := []int{1, 2, 3}
	for i := 0; i < 10; i++ {
		arm, slot, err := c.SelectSlot(5, arms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FeedbackSlot(5, arm, slot, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	m := scrape(t, reg)
	if m["serve_connections_total"].(float64) < 1 {
		t.Fatalf("serve_connections_total = %v, want >= 1", m["serve_connections_total"])
	}
	if m["serve_connections_active"].(float64) != 1 {
		t.Fatalf("serve_connections_active = %v, want 1", m["serve_connections_active"])
	}
	if m["serve_frames_read_total"].(float64) < 11 || m["serve_frames_written_total"].(float64) < 11 {
		t.Fatalf("frame counters too low: read=%v written=%v",
			m["serve_frames_read_total"], m["serve_frames_written_total"])
	}
	if m["serve_bytes_read_total"].(float64) <= 0 || m["serve_bytes_written_total"].(float64) <= 0 {
		t.Fatalf("byte counters empty: read=%v written=%v",
			m["serve_bytes_read_total"], m["serve_bytes_written_total"])
	}
	if m["serve_select_total"].(float64) != 10 {
		t.Fatalf("serve_select_total = %v, want 10", m["serve_select_total"])
	}
}

// startInstrumentedServer is startServer with a metrics set installed.
func startInstrumentedServer(t *testing.T, store *Store, sm *ServerMetrics) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{FrameTimeout: 30 * time.Second, Metrics: sm})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

// TestClientMetricsSurfaceReconnects forces reconnects through a chaos
// proxy and checks the registered client counters — the satellite moving
// Reconnects/DroppedFeedback behind the registry: the accessors and the
// scraped series must read the same counter.
func TestClientMetricsSurfaceReconnects(t *testing.T) {
	_, addr := startServer(t, Config{})
	proxy, err := chaos.NewProxy(addr, chaos.Faults{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	reg := obsv.NewRegistry()
	opts := chaosClientOptions()
	opts.Metrics = NewClientMetrics(reg)
	c, err := Dial(proxy.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	arms := []int{1, 2}
	step := func() {
		arm, slot, err := c.SelectSlot(3, arms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FeedbackSlot(3, arm, slot, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	step()
	proxy.CutAll()
	step()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	if c.Reconnects() == 0 {
		t.Fatal("CutAll did not force a reconnect")
	}
	m := scrape(t, reg)
	if got := m["serve_client_reconnects_total"].(float64); got != float64(c.Reconnects()) {
		t.Fatalf("registry reconnects = %v, accessor = %d", got, c.Reconnects())
	}
	if got := m["serve_client_redials_total"].(float64); got < m["serve_client_reconnects_total"].(float64) {
		t.Fatalf("redials %v below reconnects %v", got, m["serve_client_reconnects_total"])
	}
	if got := m["serve_client_feedback_dropped_total"].(float64); got != float64(c.DroppedFeedback()) {
		t.Fatalf("registry dropped = %v, accessor = %d", got, c.DroppedFeedback())
	}
}

// TestStoreMetricsScrapeDuringSoak scrapes an instrumented store while
// eight goroutines hammer it — the race test behind the CI serve soak's
// mid-soak scrape. Every scrape must validate, and the counters must show
// every write the soak made. Each writer has a fixed op budget: unbounded
// writers on a small machine starve the scraper and spend the run
// re-seeding released devices.
func TestStoreMetricsScrapeDuringSoak(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	reg := obsv.NewRegistry()
	s.Instrument(reg)

	const clients, ops = 8, 20000
	first := scrape(t, reg)["serve_select_total"].(float64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arms := []int{1, 2, 3}
			dev := uint64(g + 1)
			for i := 0; i < ops; i++ {
				arm, sl, err := s.Select(dev, arms)
				if err != nil {
					t.Error(err)
					return
				}
				s.Feedback(dev, arm, sl, reward(dev, arm, i))
				if i%100 == 99 {
					s.Release(dev)
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	var last map[string]any
	for i, soaking := 0, true; i < 30 || soaking; i++ {
		select {
		case <-done:
			soaking = false
		default:
		}
		last = scrape(t, reg)
	}
	if got, want := last["serve_select_total"].(float64)-first, float64(clients*ops); got != want {
		t.Fatalf("writers made %v selects between the first and last scrape, want %v", got, want)
	}
}
