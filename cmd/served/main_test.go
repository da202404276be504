package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

// bootDaemon starts run() as main would, on an ephemeral port, and waits
// for the listener. It returns the address and the daemon's exit channel.
func bootDaemon(t *testing.T, extra ...string) (string, chan error) {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- run(append([]string{"-listen", addr, "-quiet"}, extra...)) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return addr, errCh
		}
		if time.Now().After(deadline) {
			t.Fatalf("served never started listening: %v", err)
		}
		select {
		case err := <-errCh:
			t.Fatalf("served exited early: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// driveDaemon runs the scripted slots [from, to) against the daemon and
// returns the selections. The final Ping is the barrier that proves the
// daemon applied every buffered feedback report before we move on.
func driveDaemon(t *testing.T, addr string, from, to int) []int {
	t.Helper()
	c, err := serve.Dial(addr, serve.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arms := []int{10, 20, 30}
	var out []int
	for slot := from; slot < to; slot++ {
		for _, dev := range []uint64{1, 2} {
			arm, sl, err := c.SelectSlot(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, arm)
			if err := c.FeedbackSlot(dev, arm, sl, float64(arm%7)/7); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunSnapshotCycleResumesBitIdentically is the daemon-level half of the
// snapshot contract: serve traffic, SIGTERM (flushes state), reboot from
// the snapshot, continue — the rebooted daemon must decide exactly as an
// uninterrupted store fed the same script.
func TestRunSnapshotCycleResumesBitIdentically(t *testing.T) {
	const cut, end = 60, 120
	snap := filepath.Join(t.TempDir(), "state.snap")

	// Uninterrupted reference: the same script against an in-process store
	// with the daemon's defaults.
	ref, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arms := []int{10, 20, 30}
	var want []int
	for slot := 0; slot < end; slot++ {
		for _, dev := range []uint64{1, 2} {
			arm, sl, err := ref.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			if slot >= cut {
				want = append(want, arm)
			}
			ref.Feedback(dev, arm, sl, float64(arm%7)/7)
		}
	}

	addr, errCh := bootDaemon(t, "-snapshot", snap)
	driveDaemon(t, addr, 0, cut)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("SIGTERM did not flush the snapshot: %v", err)
	}

	addr2, errCh2 := bootDaemon(t, "-snapshot", snap)
	got := driveDaemon(t, addr2, cut, end)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("selection %d after reboot: daemon chose %d, uninterrupted store %d", i, got[i], want[i])
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second SIGTERM exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rebooted daemon did not exit on SIGTERM")
	}
}

// TestRunRejectsBadFlags pins the flag surface.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-alg", "greedy"}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("greedy must be rejected (no exportable state), got %v", err)
	}
	if err := run([]string{"-snapshot-every", "1m"}); err == nil ||
		!strings.Contains(err.Error(), "requires -snapshot") {
		t.Fatalf("-snapshot-every without -snapshot must be rejected, got %v", err)
	}
	if err := run([]string{"-evict-every", "1m"}); err == nil ||
		!strings.Contains(err.Error(), "requires -evict-idle") {
		t.Fatalf("-evict-every without -evict-idle must be rejected, got %v", err)
	}
	if err := run([]string{"-listen", "not-an-address"}); err == nil {
		t.Fatal("want a listen error")
	}
}

// TestRunEvictsIdleDevicesDeterministically boots the daemon with a short
// idle TTL, lets a device's session go quiet past it, and proves both
// halves of the eviction contract: the session is really gone (the re-join
// decides like a brand-new device replayed from the root seed, not like a
// continuation), and a device kept busy decides exactly as if eviction
// were disabled.
func TestRunEvictsIdleDevicesDeterministically(t *testing.T) {
	addr, errCh := bootDaemon(t, "-evict-idle", "150ms", "-evict-every", "25ms")
	defer func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("SIGTERM exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit on SIGTERM")
		}
	}()

	first := driveDaemon(t, addr, 0, 20)

	// The daemon's defaults, replayed twice in process: what the re-joined
	// device must decide if eviction really reset it.
	ref, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arms := []int{10, 20, 30}
	var fresh []int
	for slot := 0; slot < 20; slot++ {
		for _, dev := range []uint64{1, 2} {
			arm, sl, err := ref.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			fresh = append(fresh, arm)
			ref.Feedback(dev, arm, sl, float64(arm%7)/7)
		}
	}
	for i := range fresh {
		if first[i] != fresh[i] {
			t.Fatalf("selection %d: daemon chose %d, reference store %d", i, first[i], fresh[i])
		}
	}

	// Idle past the TTL: the sweep must retire both devices.
	time.Sleep(500 * time.Millisecond)

	again := driveDaemon(t, addr, 0, 20)
	for i := range fresh {
		if again[i] != fresh[i] {
			t.Fatalf("selection %d after eviction: daemon chose %d, a from-seed replay chooses %d — the idle session survived or resumed dirty",
				i, again[i], fresh[i])
		}
	}
}

// freePort reserves an ephemeral loopback address and releases it for the
// daemon to bind.
func freePort(t *testing.T) string {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	return addr
}

// TestRunDebugEndpointServesMetrics is the acceptance check for the debug
// listener: boot with -debug-addr, drive real traffic, and the /metrics
// scrape must be parseable Prometheus text carrying the select count, the
// select-latency histogram, the eviction count, and the connection count —
// with /varz and /debug/pprof/ alive on the same listener.
func TestRunDebugEndpointServesMetrics(t *testing.T) {
	debugAddr := freePort(t)
	addr, errCh := bootDaemon(t,
		"-debug-addr", debugAddr,
		"-evict-idle", "150ms", "-evict-every", "25ms")
	defer func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("SIGTERM exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit on SIGTERM")
		}
	}()

	// 70 slots per device crosses the 1-in-64 latency sampler however the
	// devices hash across shards.
	driveDaemon(t, addr, 0, 70)

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + debugAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := obsv.CheckPrometheusText(bytes.NewReader(body)); err != nil {
			t.Fatalf("/metrics not parseable Prometheus text: %v\n%s", err, body)
		}
		return string(body)
	}

	// The body is logged once, ahead of the errors, so each missing line is
	// reported on its own last line, where a cut log keeps it.
	text := scrape()
	var missing []string
	for _, want := range []string{
		"serve_select_total 140",
		"serve_select_latency_ns_count",
		// 2: bootDaemon's readiness probe plus driveDaemon's client.
		"serve_connections_total 2",
		"serve_devices_evicted_total",
		"serve_select_latency_ns_bucket", // the latency histogram has samples
	} {
		if !strings.Contains(text, want) {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		t.Log("/metrics:\n" + text)
		for _, want := range missing {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Let the sweeper retire the idle devices, then confirm the eviction
	// counter moves on the scrape.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if strings.Contains(scrape(), "serve_devices_evicted_total 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction count never reached 2 on /metrics")
		}
		time.Sleep(25 * time.Millisecond)
	}

	resp, err := http.Get("http://" + debugAddr + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var varz map[string]any
	err = json.NewDecoder(resp.Body).Decode(&varz)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/varz not JSON: %v", err)
	}
	if varz["serve_select_total"].(float64) != 140 {
		t.Fatalf("/varz serve_select_total = %v, want 140", varz["serve_select_total"])
	}

	resp, err = http.Get("http://" + debugAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
}
