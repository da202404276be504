package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/obsv"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// TestRunServesCoordinator boots the daemon exactly as main would (on an
// ephemeral port) and drives a coordinator batch against it end to end.
func TestRunServesCoordinator(t *testing.T) {
	// Reserve an ephemeral port for the daemon.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- run([]string{"-listen", addr, "-quiet"}) }()

	// Wait for the listener to come up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shardd never started listening: %v", err)
		}
		select {
		case err := <-errCh:
			t.Fatalf("shardd exited early: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(4, core.AlgSmartEXP3),
		Slots:    40,
	}
	batch := runner.Replications{Runs: 6, Seed: 9}
	var local, remote []float64
	if err := sim.Replicate(batch, cfg, func(_ int, res *sim.Result) error {
		for d := range res.Devices {
			local = append(local, res.Devices[d].DownloadMb)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	job, err := cluster.NewJob(batch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := cluster.NewSession([]string{addr}, cluster.Options{})
	defer sess.Close()
	if err := sess.Run(job, func(_ int, res *sim.Result) error {
		for d := range res.Devices {
			remote = append(remote, res.Devices[d].DownloadMb)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("got %d downloads via shardd, want %d", len(remote), len(local))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("download %d: %v via shardd, %v locally", i, remote[i], local[i])
		}
	}
}

// TestRunRejectsBadFlags pins flag handling.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-listen"}); err == nil {
		t.Fatal("want an error for a missing flag value")
	}
	if err := run([]string{"-listen", "not-an-address"}); err == nil ||
		!strings.Contains(err.Error(), "listen") {
		t.Fatalf("want a listen error, got %v", err)
	}
}

// TestRunDebugEndpointServesMetrics boots the daemon with -debug-addr,
// drives a batch through it, and scrapes /metrics: the text must validate
// and carry the worker-side run/range counters plus the pool gauges.
func TestRunDebugEndpointServesMetrics(t *testing.T) {
	reserve := func() string {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr().String()
		probe.Close()
		return addr
	}
	addr, debugAddr := reserve(), reserve()

	errCh := make(chan error, 1)
	go func() { errCh <- run([]string{"-listen", addr, "-quiet", "-debug-addr", debugAddr}) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shardd never started listening: %v", err)
		}
		select {
		case err := <-errCh:
			t.Fatalf("shardd exited early: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(4, core.AlgSmartEXP3),
		Slots:    40,
	}
	job, err := cluster.NewJob(runner.Replications{Runs: 6, Seed: 9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := cluster.NewSession([]string{addr}, cluster.Options{})
	defer sess.Close()
	if err := sess.Run(job, func(int, *sim.Result) error { return nil }); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if err := obsv.CheckPrometheusText(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics not parseable Prometheus text: %v\n%s", err, body)
	}
	for _, want := range []string{
		"cluster_worker_runs_total 6",
		"cluster_worker_jobs_total 1",
		// 2: the readiness probe above plus the real coordinator.
		"cluster_worker_sessions_total 2",
		"runner_runs_total 6",
		"cluster_worker_range_ns_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
