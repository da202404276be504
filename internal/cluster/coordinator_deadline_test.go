package cluster

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"smartexp3/internal/frame"
)

// TestCoordinatorWriteDeadlineUnsticksStalledWorker is the mirror image of
// TestWorkerWriteDeadlineUnsticksStalledCoordinator: a worker that stops
// draining its connection without closing it must not park the session's
// shard writer forever on a full send buffer. The stalled worker is played
// by a synchronous pipe that answers the handshake and then never reads
// again — the coordinator's job dispatch can only complete via its write
// deadline. Pongs keep flowing the other way so the read path stays
// healthy and the deadline that fires is provably the write-side one.
func TestCoordinatorWriteDeadlineUnsticksStalledWorker(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()
	defer worker.Close()

	// A session around one hand-fed connection: runConn is driven directly
	// so the pipe can stand in for the TCP dial. A session built with no
	// shards has them all gone from the start; reopening gone keeps its
	// Runs waiting on the pipe instead of running in-process.
	s := NewSession(nil, Options{FrameTimeout: 250 * time.Millisecond, ChunkSize: 2})
	s.gone = make(chan struct{})
	sh := &shard{addr: "pipe"}

	connErr := make(chan error, 1)
	go func() {
		_, _, err := s.runConn(sh, coord)
		connErr <- err
	}()

	fc := frame.NewConn(worker, 0, 0, false)
	if _, err := fc.Accept(hello); err != nil {
		t.Fatalf("want the coordinator hello, got %v", err)
	}

	// The stall: from here the worker reads nothing, but pongs keep the
	// coordinator's read deadline refreshed so only a write can time out.
	stop := make(chan struct{})
	var pongs sync.WaitGroup
	pongs.Add(1)
	go func() {
		defer pongs.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if err := sendMsgs(fc, &message{tag: tagPong, pong: pongMsg{Seq: seq}}); err != nil {
				return
			}
		}
	}()

	// Submitting a job makes the shard writer claim a chunk and dispatch
	// it; the pipe has no buffer, so that write parks immediately.
	job := testJob(t, 8)
	runErr := make(chan error, 1)
	go func() {
		merge, _ := fingerprint()
		runErr <- s.Run(job, merge)
	}()

	start := time.Now()
	select {
	case err := <-connErr:
		if err == nil {
			t.Fatal("runConn returned nil against a stalled worker")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("want a deadline error, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("coordinator took %v to notice the stalled worker", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shard writer is still parked on the stalled connection")
	}

	close(stop)
	pongs.Wait()
	s.Close() // fail the parked job so its Run returns
	if err := <-runErr; err == nil {
		t.Fatal("job survived losing its only shard mid-dispatch with no rescuer")
	}
}
