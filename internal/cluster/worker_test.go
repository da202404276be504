package cluster

import (
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"smartexp3/internal/obsv"
	"smartexp3/internal/sim"
)

// TestWorkerStreamsRangesInOrder plays the coordinator over a raw frame
// connection and pipelines three ranges and a ping without waiting: the
// worker's writer must deliver each range's results in run order, then
// its RangeDone, then the next range's, with the pong in the place the
// ping took among them, and the results must be the in-process ones.
func TestWorkerStreamsRangesInOrder(t *testing.T) {
	addrs := startWorkers(t, 1, WorkerOptions{Workers: 2})
	fc := dialRaw(t, addrs[0])
	if _, err := fc.Greet(hello); err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	job := testJob(t, 12)
	ranges := []message{rangeOf(1, 0, 4, &job), rangeOf(1, 4, 1, &job), rangeOf(1, 5, 7, &job)}
	if err := sendMsgs(fc,
		&ranges[0],
		&ranges[1],
		&message{tag: tagPing, ping: pingMsg{Seq: 9}},
		&ranges[2],
	); err != nil {
		t.Fatal(err)
	}
	next := func() *message {
		t.Helper()
		env, err := nextMsg(fc)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	merge, got := fingerprint()
	for i := range ranges {
		r := &ranges[i].rng
		for run := r.First; run < r.First+r.Count; run++ {
			env := next()
			if env.tag != tagRunResult || env.result.Run != run {
				t.Fatalf("range %d: want the result of run %d, got %+v", i, run, env)
			}
			merge(run, env.result.Res)
		}
		if env := next(); env.tag != tagRangeDone || env.rangeDone.First != r.First || env.rangeDone.Err != "" {
			t.Fatalf("range %d: want its RangeDone after its last result, got %+v", i, env)
		}
		if i == 1 {
			if env := next(); env.tag != tagPong || env.pong.Seq != 9 {
				t.Fatalf("want the pong between the second and third ranges, got %+v", env)
			}
		}
	}
	if want := inProcessWant(t, job); got.String() != want {
		t.Fatal("streamed results differ from the in-process run")
	}
}

// TestWorkerCachesCompileRefusal pipelines two ranges of one config that
// decodes but does not compile over one connection. Both must come back
// with the compile error, and the refusal is cached beside the engines
// under the same config bytes, so the worker rejects the config once, not
// once per range.
func TestWorkerCachesCompileRefusal(t *testing.T) {
	wm := NewWorkerMetrics(obsv.NewRegistry())
	addrs := startWorkers(t, 1, WorkerOptions{Workers: 1, Metrics: wm})
	fc := dialRaw(t, addrs[0])
	if _, err := fc.Greet(hello); err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	job := testJob(t, 4)
	job.Config.Slots = 0
	_, compileErr := sim.NewEngine(job.Config)
	if compileErr == nil {
		t.Fatal("a zero-slot config compiled")
	}
	ranges := []message{rangeOf(1, 0, 2, &job), rangeOf(1, 2, 2, &job)}
	if err := sendMsgs(fc, &ranges[0], &ranges[1]); err != nil {
		t.Fatal(err)
	}
	for i := range ranges {
		env, err := nextMsg(fc)
		if err != nil {
			t.Fatal(err)
		}
		if env.tag != tagRangeDone || env.rangeDone.First != ranges[i].rng.First || env.rangeDone.Err != compileErr.Error() {
			t.Fatalf("range %d: want a RangeDone carrying %q, got %+v", i, compileErr, env)
		}
	}
	if n := wm.JobsRejected.Value(); n != 1 {
		t.Fatalf("cluster_worker_jobs_rejected_total = %d for one bad config, want 1", n)
	}
	if n := wm.Jobs.Value(); n != 0 {
		t.Fatalf("cluster_worker_jobs_total = %d, want 0 engines compiled", n)
	}
}

// TestWorkerSessionsEndingMidRangeLeaveNoGoroutines drops 50 sessions
// while their range is still streaming, and 10 more once it has finished,
// when the writer has nothing left to fail on and must be stopped: every
// session's frame loop, its writer and its runner goroutines must exit,
// so the worker's goroutine count returns to where it was before the
// first dial.
func TestWorkerSessionsEndingMidRangeLeaveNoGoroutines(t *testing.T) {
	addrs := startWorkers(t, 1, WorkerOptions{Workers: 2})
	baseline := runtime.NumGoroutine()
	job := testJob(t, 64)
	for i := 0; i < 60; i++ {
		fc := dialRaw(t, addrs[0])
		if _, err := fc.Greet(hello); err != nil {
			t.Fatalf("session %d: handshake failed: %v", i, err)
		}
		whole := rangeOf(1, 0, job.Runs, &job)
		if err := sendMsgs(fc, &whole); err != nil {
			t.Fatal(err)
		}
		frames := 1 // mid-range: the first result
		if i >= 50 {
			frames = 1 + job.Runs // idle: every result and the RangeDone
		}
		for f := 0; f < frames; f++ {
			if _, err := nextMsg(fc); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		fc.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines alive, want %d; stacks:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// emfileListener fails its first Accepts the way a listener does when the
// process is out of file descriptors, then accepts for real.
type emfileListener struct {
	net.Listener
	failures int // accepts left to fail; only the accept loop touches it
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.failures > 0 {
		l.failures--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors pins shardd's accept loop to the
// same classification as the decision daemons': EMFILE accepts are slept
// through, a coordinator connecting after them is served, and closing the
// listener still returns nil.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(&emfileListener{Listener: ln, failures: 3}, WorkerOptions{Workers: 1}) }()
	fc := dialRaw(t, ln.Addr().String())
	greeted := make(chan error, 1)
	go func() { _, err := fc.Greet(hello); greeted <- err }()
	select {
	case err := <-served:
		t.Fatalf("Serve returned on a transient accept error: %v", err)
	case err := <-greeted:
		if err != nil {
			t.Fatalf("handshake after transient accept errors: %v", err)
		}
	}
	ln.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after close = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the listener closed")
	}
}
