package cluster

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestWorkerWriteDeadlineUnsticksStalledCoordinator pins the PR-4 follow-on:
// a coordinator that stops draining its connection without closing it (died
// under SIGSTOP, half-open partition, wedged reader) must not park the
// worker's serving goroutine forever on a full send buffer. The stalled
// reader is played by a synchronous pipe: the test consumes the handshake,
// the job ack and the first result frame, then stops reading entirely, so
// the worker's next result write can only complete via its write deadline.
func TestWorkerWriteDeadlineUnsticksStalledCoordinator(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()

	errCh := make(chan error, 1)
	go func() {
		defer worker.Close()
		errCh <- serveConn(worker, WorkerOptions{WriteTimeout: 200 * time.Millisecond})
	}()

	fw := NewFrameWriter(coord)
	fr := NewFrameReader(coord)
	if err := fw.write(&envelope{Hello: &helloMsg{Version: protocolVersion}}); err != nil {
		t.Fatal(err)
	}
	if env, err := fr.read(); err != nil || env.HelloAck == nil || env.HelloAck.Err != "" {
		t.Fatalf("handshake failed: %+v, %v", env, err)
	}
	if err := fw.write(&envelope{Job: &jobMsg{ID: 1, Spec: testJob(t, 8)}}); err != nil {
		t.Fatal(err)
	}
	if env, err := fr.read(); err != nil || env.JobAck == nil || env.JobAck.Err != "" {
		t.Fatalf("job rejected: %+v, %v", env, err)
	}
	if err := fw.write(&envelope{Range: &rangeMsg{Job: 1, First: 0, Count: 8}}); err != nil {
		t.Fatal(err)
	}
	// Prove the range is executing, then stall: no more reads, connection
	// deliberately left open.
	if env, err := fr.read(); err != nil || env.RunResult == nil {
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

// TestWorkerWriteTimeoutDefaultsAndDisable pins the option semantics: zero
// means the 2-minute default, negative disables.
func TestWorkerWriteTimeoutDefaultsAndDisable(t *testing.T) {
	if got := (WorkerOptions{}).writeTimeout(); got != 2*time.Minute {
		t.Fatalf("zero WriteTimeout resolves to %v, want 2m", got)
	}
	if got := (WorkerOptions{WriteTimeout: -1}).writeTimeout(); got != 0 {
		t.Fatalf("negative WriteTimeout resolves to %v, want disabled", got)
	}
	if got := (WorkerOptions{WriteTimeout: time.Second}).writeTimeout(); got != time.Second {
		t.Fatalf("explicit WriteTimeout resolves to %v", got)
	}
}
