package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"smartexp3/internal/cluster"
)

func TestListDoesNotRunExperiments(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if err := run([]string{"-run", "fig99"}); err == nil {
		t.Fatal("want error for unknown experiment id")
	}
}

func TestQuickRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-run", "thm2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"thm2.txt", "thm2.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("want flag parse error")
	}
}

// countingListener counts accepted connections: the -cluster session test
// asserts the whole reproduce run used exactly one connection per worker.
type countingListener struct {
	net.Listener
	accepts *atomic.Int32
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestClusterParexpPipelinesOverOneSession drives the real CLI path: two
// experiments under -parexp -cluster against one in-process worker. The
// worker must see exactly one connection (the persistent session) carrying
// ranges of several jobs (the experiments' pipelined batches), counted by
// the distinct job ids of its per-range log lines, and the run must
// produce its artifacts.
func TestClusterParexpPipelinesOverOneSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int32
	var mu sync.Mutex
	jobs := make(map[string]bool)
	rangeLine := regexp.MustCompile(`job ([0-9]+): runs`)
	go cluster.Serve(countingListener{Listener: ln, accepts: &accepts}, cluster.WorkerOptions{
		Logf: func(format string, args ...any) {
			if m := rangeLine.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
				mu.Lock()
				jobs[m[1]] = true
				mu.Unlock()
			}
		},
	})

	dir := t.TempDir()
	// A fresh seed keeps the per-process experiment caches from satisfying
	// the sweeps before the cluster ever sees them.
	err = run([]string{"-quick", "-run", "thm2,thm3", "-parexp",
		"-seed", "987654321", "-out", dir, "-cluster", ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"thm2.txt", "thm3.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("worker saw %d connections, want exactly 1 persistent session", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(jobs) < 2 {
		t.Fatalf("worker ran ranges of %d jobs, want at least 2 pipelined over the one session", len(jobs))
	}
}
