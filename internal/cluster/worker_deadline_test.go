package cluster

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"smartexp3/internal/frame"
)

// TestWorkerWriteDeadlineUnsticksStalledCoordinator pins the PR-4 follow-on:
// a coordinator that stops draining its connection without closing it (died
// under SIGSTOP, half-open partition, wedged reader) must not park the
// worker's serving goroutine forever on a full send buffer. The stalled
// reader is played by a synchronous pipe: the test consumes the handshake
// and the first result frame, then stops reading entirely, so
// the worker's next result write can only complete via its write deadline.
func TestWorkerWriteDeadlineUnsticksStalledCoordinator(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()

	errCh := make(chan error, 1)
	go func() {
		defer worker.Close()
		errCh <- serveConn(worker, WorkerOptions{WriteTimeout: 200 * time.Millisecond})
	}()

	fc := frame.NewConn(coord, 0, 0, false)
	if _, err := fc.Greet(hello); err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	job := testJob(t, 8)
	whole := rangeOf(1, 0, 8, &job)
	if err := sendMsgs(fc, &whole); err != nil {
		t.Fatal(err)
	}
	// Prove the range is executing, then stall: no more reads, connection
	// deliberately left open.
	if env, err := nextMsg(fc); err != nil || env.tag != tagRunResult {
		t.Fatalf("want the first streamed result, got %+v, %v", env, err)
	}

	start := time.Now()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("serveConn returned nil against a stalled coordinator")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("want a deadline error, got %v", err)
		}
		// Generous bound: the deadline is 200ms, anything near the test
		// timeout would mean the deadline never armed.
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("worker took %v to notice the stalled coordinator", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker goroutine is still parked on the stalled connection")
	}
}

// TestWorkerWriteTimeoutDefaultsAndDisable pins the option semantics, which
// the worker resolves through the shared frame.Timeout: zero means the
// 2-minute default, negative disables.
func TestWorkerWriteTimeoutDefaultsAndDisable(t *testing.T) {
	if got := frame.Timeout(WorkerOptions{}.WriteTimeout); got != 2*time.Minute {
		t.Fatalf("zero WriteTimeout resolves to %v, want 2m", got)
	}
	if got := frame.Timeout(WorkerOptions{WriteTimeout: -1}.WriteTimeout); got != 0 {
		t.Fatalf("negative WriteTimeout resolves to %v, want disabled", got)
	}
	if got := frame.Timeout(WorkerOptions{WriteTimeout: time.Second}.WriteTimeout); got != time.Second {
		t.Fatalf("explicit WriteTimeout resolves to %v", got)
	}
}
