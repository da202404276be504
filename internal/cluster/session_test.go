package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/obsv"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// startCountingWorker is startWorkers for one daemon, with an accept
// counter: session tests assert connection reuse (count stays 1) or
// reconnection (count grows) — the observable difference between a
// persistent session and the old dial-per-batch coordinator.
func startCountingWorker(t *testing.T, opts WorkerOptions) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer conn.Close()
				serveConn(conn, opts)
			}()
		}
	}()
	return ln.Addr().String(), &accepts
}

// sessionJob builds one batch of the shared test scenario on its own RNG
// stream, so multi-batch tests exercise genuinely distinct work.
func sessionJob(t *testing.T, runs int, stream int64) JobSpec {
	t.Helper()
	job, err := NewJob(runner.Replications{Runs: runs, Seed: 11, Stream: []int64{stream}}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// inProcessWant fingerprints a job run entirely in-process — the reference
// every session path must reproduce bit for bit.
func inProcessWant(t *testing.T, job JobSpec) string {
	t.Helper()
	merge, want := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 1}, merge); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("in-process run produced no results")
	}
	return want.String()
}

// TestSessionReuseAcrossBatches is the tentpole's acceptance test: N batches
// back-to-back over one session produce byte-identical aggregates to
// in-process runs, over a single worker connection — no redial between
// batches.
func TestSessionReuseAcrossBatches(t *testing.T) {
	addr, accepts := startCountingWorker(t, WorkerOptions{Workers: 2})
	s := NewSession([]string{addr}, Options{ChunkSize: 2, Logf: t.Logf})
	defer s.Close()

	for batch := 0; batch < 3; batch++ {
		job := sessionJob(t, 12, int64(batch))
		want := inProcessWant(t, job)
		merge, got := fingerprint()
		if err := s.Run(job, merge); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("batch %d over a warm session differs from the in-process aggregate", batch)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("3 batches used %d connections, want 1 (persistent session)", n)
	}
}

// TestSessionPipelinesConcurrentJobs multiplexes three jobs over one
// two-worker session at once — the reproduce -parexp shape — and checks
// each merged stream against its in-process twin.
func TestSessionPipelinesConcurrentJobs(t *testing.T) {
	addrs := startWorkers(t, 2, WorkerOptions{Workers: 1})
	s := NewSession(addrs, Options{ChunkSize: 2, Logf: t.Logf})
	defer s.Close()

	jobs := make([]JobSpec, 3)
	wants := make([]string, 3)
	for i := range jobs {
		jobs[i] = sessionJob(t, 10, int64(100+i))
		wants[i] = inProcessWant(t, jobs[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	gots := make([]string, 3)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			merge, got := fingerprint()
			errs[i] = s.Run(jobs[i], merge)
			gots[i] = got.String()
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if gots[i] != wants[i] {
			t.Fatalf("pipelined job %d differs from its in-process aggregate", i)
		}
	}
}

// killProxy forwards TCP connections to backend and can sever every active
// one on demand — a worker restarting between batches, as far as the
// session can tell.
type killProxy struct {
	addr string
	mu   sync.Mutex
	live []net.Conn
}

func newKillProxy(t *testing.T, backend string) *killProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &killProxy{addr: ln.Addr().String()}
	go func() {
		for {
			up, err := ln.Accept()
			if err != nil {
				return
			}
			down, err := net.Dial("tcp", backend)
			if err != nil {
				up.Close()
				continue
			}
			p.mu.Lock()
			p.live = append(p.live, up, down)
			p.mu.Unlock()
			go func() {
				defer up.Close()
				defer down.Close()
				io.Copy(down, up)
			}()
			go func() {
				defer up.Close()
				defer down.Close()
				io.Copy(up, down)
			}()
		}
	}()
	return p
}

func (p *killProxy) killActive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.live {
		c.Close()
	}
	p.live = nil
}

// TestSessionReconnectsAfterWorkerKilledBetweenJobs severs the worker
// connection between two batches: the session must redial and the second
// batch must still match its in-process aggregate — the mid-session
// reconnect half of the determinism contract.
func TestSessionReconnectsAfterWorkerKilledBetweenJobs(t *testing.T) {
	addr, accepts := startCountingWorker(t, WorkerOptions{Workers: 1})
	proxy := newKillProxy(t, addr)
	s := NewSession([]string{proxy.addr}, Options{ChunkSize: 2, Logf: t.Logf})
	defer s.Close()

	first := sessionJob(t, 8, 1)
	wantFirst := inProcessWant(t, first)
	merge, got := fingerprint()
	if err := s.Run(first, merge); err != nil {
		t.Fatal(err)
	}
	if got.String() != wantFirst {
		t.Fatal("first batch differs from the in-process aggregate")
	}

	proxy.killActive()

	second := sessionJob(t, 8, 2)
	wantSecond := inProcessWant(t, second)
	merge2, got2 := fingerprint()
	if err := s.Run(second, merge2); err != nil {
		t.Fatal(err)
	}
	if got2.String() != wantSecond {
		t.Fatal("batch after a mid-session worker kill differs from the in-process aggregate")
	}
	if n := accepts.Load(); n < 2 {
		t.Fatalf("worker saw %d connections, want ≥ 2 (the kill must have forced a reconnect)", n)
	}
}

// TestSessionSurvivesWorkerKilledDuringPipelinedJobs runs two jobs
// concurrently over a session whose first worker dies mid result stream
// (and keeps dying on every reconnect): undelivered ranges reassign across
// reconnects and to the healthy worker, and both merged streams stay
// byte-identical.
func TestSessionSurvivesWorkerKilledDuringPipelinedJobs(t *testing.T) {
	addrs := startWorkers(t, 2, WorkerOptions{Workers: 1})
	flaky, _ := cutProxy(t, addrs[0], 16384)
	s := NewSession([]string{flaky, addrs[1]}, Options{ChunkSize: 2, Logf: t.Logf})
	defer s.Close()

	jobs := []JobSpec{sessionJob(t, 12, 7), sessionJob(t, 12, 8)}
	wants := []string{inProcessWant(t, jobs[0]), inProcessWant(t, jobs[1])}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	gots := make([]string, 2)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			merge, got := fingerprint()
			errs[i] = s.Run(jobs[i], merge)
			gots[i] = got.String()
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if gots[i] != wants[i] {
			t.Fatalf("job %d after mid-stream worker kills differs from its in-process aggregate", i)
		}
	}
}

// TestSessionIdleGapDoesNotTripFrameTimeout pins the deadline-clearing fix:
// with keepalives effectively disabled, a session idling longer than the
// frame timeout between batches must NOT time out — a deadline left armed
// from the previous batch would expire in the gap and the next batch's
// first frame would be misattributed as a stall, forcing a spurious
// reconnect (observable as a second accept).
func TestSessionIdleGapDoesNotTripFrameTimeout(t *testing.T) {
	addr, accepts := startCountingWorker(t, WorkerOptions{Workers: 1})
	s := NewSession([]string{addr}, Options{
		ChunkSize:    2,
		FrameTimeout: 250 * time.Millisecond,
		Keepalive:    time.Hour,
		Logf:         t.Logf,
	})
	defer s.Close()

	for batch := 0; batch < 2; batch++ {
		job := sessionJob(t, 6, int64(batch))
		want := inProcessWant(t, job)
		merge, got := fingerprint()
		if err := s.Run(job, merge); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("batch %d differs from the in-process aggregate", batch)
		}
		if batch == 0 {
			time.Sleep(3 * 250 * time.Millisecond) // idle well past the frame timeout
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("idle gap forced %d connections, want 1 (stale deadline tripped?)", n)
	}
}

// TestSessionKeepalivePings pins the other half of the idle discipline: an
// idle session pings its workers (and reads the pongs under the frame
// timeout), so a silently dead connection is noticed between batches.
func TestSessionKeepalivePings(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var pings atomic.Int32
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := frame.NewConn(conn, 0, 0, false)
		if _, err := fc.Accept(hello); err != nil {
			return
		}
		for {
			env, err := nextMsg(fc)
			if err != nil {
				return
			}
			if env.tag == tagPing {
				pings.Add(1)
				if err := sendMsgs(fc, &message{tag: tagPong, pong: pongMsg{Seq: env.ping.Seq}}); err != nil {
					return
				}
			}
		}
	}()

	s := NewSession([]string{ln.Addr().String()}, Options{
		FrameTimeout: 200 * time.Millisecond, // keepalive defaults to a quarter of this
		Logf:         t.Logf,
	})
	defer s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for pings.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if pings.Load() == 0 {
		t.Fatal("idle session never pinged its worker")
	}
}

// TestHandshakeRejectionClosesConnection pins the connection-lifecycle fix:
// when the post-dial handshake fails, the coordinator must close the socket
// instead of leaking it on the early-return path. The fake worker rejects
// the session and then watches for the EOF only a closed coordinator end
// produces.
func TestHandshakeRejectionClosesConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sawClose := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sawClose <- err
			return
		}
		defer conn.Close()
		fc := frame.NewConn(conn, 0, 0, false)
		refusal := hello
		refusal.Err = "no capacity"
		if _, err := fc.Accept(refusal); !errors.Is(err, frame.ErrHandshake) {
			sawClose <- err
			return
		}
		// A leaked coordinator conn blocks this read until the deadline; the
		// fixed path closes promptly and it returns io.EOF.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = nextMsg(fc)
		sawClose <- err
	}()

	job := testJob(t, 6)
	merge, got := fingerprint()
	// The rejected shard retires; the batch completes in-process.
	if err := runBatch(job, []string{ln.Addr().String()}, Options{LocalWorkers: 1, Logf: t.Logf}, merge); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("batch did not complete after the handshake rejection")
	}
	if err := <-sawClose; !errors.Is(err, io.EOF) {
		t.Fatalf("worker saw %v, want io.EOF from the coordinator closing the rejected conn", err)
	}
}

// TestSessionJobRejectionKeepsSessionAlive ships a shardable job whose
// config sim.NewEngine rejects, and then a healthy one, over the same
// session: the worker answers the bad job's ranges with RangeDone errors,
// which must fail only that job — the connection (and the ranges
// pipelined behind the first error) stay orderly, and no redial happens.
func TestSessionJobRejectionKeepsSessionAlive(t *testing.T) {
	reg := obsv.NewRegistry()
	wm := NewWorkerMetrics(reg)
	addr, accepts := startCountingWorker(t, WorkerOptions{Workers: 1, Metrics: wm})
	s := NewSession([]string{addr}, Options{ChunkSize: 2, Logf: t.Logf})
	defer s.Close()

	bad := sessionJob(t, 6, 1)
	bad.Config.Slots = 0
	if err := Shardable(bad.Config); err != nil {
		t.Fatal(err)
	}
	_, compileErr := sim.NewEngine(bad.Config)
	if compileErr == nil {
		t.Fatal("a zero-slot config compiled")
	}
	merge, _ := fingerprint()
	err := s.Run(bad, merge)
	if err == nil || !strings.Contains(err.Error(), ": "+compileErr.Error()) {
		t.Fatalf("want the worker's compile error, got %v", err)
	}
	if n := wm.JobsRejected.Value(); n == 0 {
		t.Fatal("the worker counted no failed compile")
	}

	good := sessionJob(t, 8, 2)
	want := inProcessWant(t, good)
	merge2, got := fingerprint()
	if err := s.Run(good, merge2); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatal("batch after a job rejection differs from the in-process aggregate")
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("job rejection forced %d connections, want 1", n)
	}
}

// TestWorkerEngineCacheSurvivesReleaseCycles pins the worker-side engine
// cache against the suite's dominant pattern: batch after batch of the
// same config, with up to maxCachedEngines-1 other configs run between
// two of them. The hot config's engine must be the same object every time
// — a regression here silently reintroduces a per-batch compile — and the
// cache must hold no more than maxCachedEngines engines, dropping the
// least recently used first.
func TestWorkerEngineCacheSurvivesReleaseCycles(t *testing.T) {
	var c engineCache
	hotKey, hot := []byte("hot"), &enginePool{}
	c.add(hotKey, cachedEngine{pool: hot})
	other := 0
	for cycle := 0; cycle < 4*maxCachedEngines; cycle++ {
		for i := 0; i < maxCachedEngines-1; i++ {
			key := []byte(fmt.Sprint("config ", other))
			other++
			if _, ok := c.lookup(key); ok {
				t.Fatalf("cycle %d: a config never added was found", cycle)
			}
			c.add(key, cachedEngine{pool: &enginePool{}})
		}
		if e, _ := c.lookup(hotKey); e.pool != hot {
			t.Fatalf("cycle %d evicted the hot engine", cycle)
		}
		if len(c) != maxCachedEngines {
			t.Fatalf("cycle %d: the cache holds %d engines, want %d", cycle, len(c), maxCachedEngines)
		}
	}
	// One more distinct config than fits behind the hot one evicts it.
	for i := 0; i < maxCachedEngines; i++ {
		c.add([]byte(fmt.Sprint("fresh ", i)), cachedEngine{pool: &enginePool{}})
	}
	if _, ok := c.lookup(hotKey); ok || len(c) != maxCachedEngines {
		t.Fatalf("the cache kept the least recent engine (holding %d)", len(c))
	}
}

// TestSessionEngineCacheEvictsLeastRecentConfig streams batches of two
// more distinct configs than a worker connection caches over one session
// — one after another, then all resident ones at once, interleaving their
// ranges on the stream, then the evicted ones again. Every aggregate must
// equal sim.Replicate, and the worker must compile each config once,
// plus once more only for the configs the cache evicted.
func TestSessionEngineCacheEvictsLeastRecentConfig(t *testing.T) {
	reg := obsv.NewRegistry()
	wm := NewWorkerMetrics(reg)
	addr, accepts := startCountingWorker(t, WorkerOptions{Workers: 1, Metrics: wm})
	s := NewSession([]string{addr}, Options{ChunkSize: 2, Logf: t.Logf})
	defer s.Close()

	const configs = maxCachedEngines + 2
	run := func(i int) error {
		cfg := testConfig()
		cfg.Slots = 20 + i // distinct config bytes
		batch := runner.Replications{Runs: 4, Workers: 1, Seed: 11, Stream: []int64{int64(i)}}
		mergeA, want := fingerprint()
		if err := sim.Replicate(batch, cfg, mergeA); err != nil {
			return err
		}
		job, err := NewJob(batch, cfg)
		if err != nil {
			return err
		}
		mergeB, got := fingerprint()
		if err := s.Run(job, mergeB); err != nil {
			return err
		}
		if got.String() != want.String() {
			return fmt.Errorf("config %d differs from sim.Replicate", i)
		}
		return nil
	}
	compiles := func(want uint64, phase string) {
		t.Helper()
		if n := wm.Jobs.Value(); n != want {
			t.Fatalf("%s: the worker compiled %d engines, want %d", phase, n, want)
		}
	}

	for i := 0; i < configs; i++ {
		if err := run(i); err != nil {
			t.Fatal(err)
		}
	}
	compiles(configs, "first pass")

	// Configs 2.. are the cache's contents; running them together misses
	// nothing, however their ranges interleave.
	var wg sync.WaitGroup
	errs := make([]error, configs)
	for i := 2; i < configs; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = run(i) }()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	compiles(configs, "resident configs")

	for i := 0; i < 2; i++ {
		if err := run(i); err != nil {
			t.Fatal(err)
		}
	}
	compiles(configs+2, "evicted configs")
	if n := wm.JobsRejected.Value(); n != 0 {
		t.Fatalf("%d failed compiles", n)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestSessionRunAfterCloseRunsInProcess pins the degenerate lifecycle: a
// closed session still completes work, in-process, with unchanged bits.
func TestSessionRunAfterCloseRunsInProcess(t *testing.T) {
	addr, _ := startCountingWorker(t, WorkerOptions{Workers: 1})
	s := NewSession([]string{addr}, Options{LocalWorkers: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	job := sessionJob(t, 6, 3)
	want := inProcessWant(t, job)
	merge, got := fingerprint()
	if err := s.Run(job, merge); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatal("run after close differs from the in-process aggregate")
	}
}

// recordLogs returns a Logf that keeps every line, and a counter of the
// kept lines containing all of the given substrings.
func recordLogs() (logf func(format string, args ...any), count func(subs ...string) int) {
	var mu sync.Mutex
	var lines []string
	logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	count = func(subs ...string) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
	lines:
		for _, l := range lines {
			for _, sub := range subs {
				if !strings.Contains(l, sub) {
					continue lines
				}
			}
			n++
		}
		return n
	}
	return logf, count
}

// droppingWorker accepts one coordinator connection, completes the
// handshake, reads until the first range arrives and then closes its
// listener and the connection: a worker that dies before delivering a
// chunk, and whose port refuses every redial afterwards.
func droppingWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := frame.NewConn(conn, 0, 0, false)
		if _, err := fc.Accept(hello); err != nil {
			return
		}
		var in message
		for readMessage(fc, &in) == nil && in.tag != tagRange {
		}
	}()
	return ln.Addr().String()
}

// TestSessionShardStrikeBudget pins the redial rules. A shard that
// handshook and then lost its connection before delivering a chunk
// retires after exactly maxShardStrikes consecutive failures — the lost
// connection plus the refused redials — while a shard that never answered
// a dial retires on its first. The batch then finishes in-process,
// identical to sim.Replicate.
func TestSessionShardStrikeBudget(t *testing.T) {
	cfg := testConfig()
	batch := runner.Replications{Runs: 8, Workers: 1, Seed: 11, Stream: []int64{3}}
	mergeA, want := fingerprint()
	if err := sim.Replicate(batch, cfg, mergeA); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(batch, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dropping, dead := droppingWorker(t), reservedClosedPort(t)
	logf, count := recordLogs()
	s := NewSession([]string{dropping, dead}, Options{ChunkSize: 2, LocalWorkers: 1, Logf: logf})
	mergeB, got := fingerprint()
	err = s.Run(job, mergeB)
	s.Close() // waits for both shard goroutines: every strike is logged
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("batch finished after the shards retired differs from sim.Replicate")
	}
	lost := count("shard " + dropping + ": connection lost:")
	dials := count("shard " + dropping + ": dial:")
	if lost != 1 || lost+dials != maxShardStrikes {
		t.Fatalf("dropping shard failed %d connections and %d dials before retiring, want 1 and %d",
			lost, dials, maxShardStrikes-1)
	}
	if n := count("shard " + dead + ": dial:"); n != 1 {
		t.Fatalf("never-connected shard failed %d dials before retiring, want 1", n)
	}
	if n := count("retired"); n != 0 {
		t.Fatalf("%d shards retired as refused; no handshake was refused", n)
	}
	if n := count("all shards gone"); n != 1 {
		t.Fatalf("in-process rescue announced %d times, want 1", n)
	}
}

// pipelineProxy forwards frames between one session connection and a
// worker, decoding each. It delays every RangeDone on its way back, so
// the session's pipeline fills, and records the most ranges ever
// outstanding (forwarded to the worker and not yet acknowledged to the
// session: a lower bound on the session's own count).
type pipelineProxy struct {
	addr string

	mu          sync.Mutex
	outstanding int
	maxOut      int
}

func newPipelineProxy(t *testing.T, backend string, doneDelay time.Duration) *pipelineProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &pipelineProxy{addr: ln.Addr().String()}
	go func() {
		up, err := ln.Accept()
		if err != nil {
			return
		}
		down, err := net.Dial("tcp", backend)
		if err != nil {
			up.Close()
			return
		}
		t.Cleanup(func() { up.Close(); down.Close() })
		go p.pump(up, down, p.toWorker)
		go p.pump(down, up, func(m *message) {
			if m.tag == tagRangeDone {
				time.Sleep(doneDelay)
				p.mu.Lock()
				p.outstanding-- // before forwarding: the session cannot have seen it yet
				p.mu.Unlock()
			}
		})
	}()
	return p
}

// pump copies frames from src to dst, showing each decoded message (the
// hellos do not decode and pass unseen) to see before forwarding it.
func (p *pipelineProxy) pump(src, dst net.Conn, see func(m *message)) {
	defer src.Close()
	defer dst.Close()
	r, w := frame.NewReader(src), frame.NewWriter(dst)
	var m message
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		if m.decode(f) == nil {
			see(&m)
		}
		if err := w.WriteFrame(f); err != nil {
			return
		}
	}
}

func (p *pipelineProxy) toWorker(m *message) {
	if m.tag == tagRange {
		p.mu.Lock()
		p.outstanding++
		p.maxOut = max(p.maxOut, p.outstanding)
		p.mu.Unlock()
	}
}

// TestSessionPipelineDepthAndRelease pins the shard writer's pipeline
// over one connection whose range acknowledgements come back slowly, and
// the turn-taking of the jobs it serves. A long job keeps the pipeline
// full while short jobs submitted after it run one after another beside
// it, each finishing while the long one still runs: the claim rotates
// between jobs, so the long job cannot starve the short ones. The session
// never has more than pipelineDepth ranges outstanding, and it does fill
// the pipeline.
func TestSessionPipelineDepthAndRelease(t *testing.T) {
	proxy := newPipelineProxy(t, startWorkers(t, 1, WorkerOptions{Workers: 1})[0], 5*time.Millisecond)
	s := NewSession([]string{proxy.addr}, Options{ChunkSize: 1, Logf: t.Logf})
	defer s.Close()

	long := sessionJob(t, 64, 200)
	wantLong := inProcessWant(t, long)
	longDone := make(chan error, 1)
	mergeLong, gotLong := fingerprint()
	go func() { longDone <- s.Run(long, mergeLong) }()

	for i := range 3 {
		short := sessionJob(t, 2, int64(300+i))
		want := inProcessWant(t, short)
		merge, got := fingerprint()
		if err := s.Run(short, merge); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("short job %d differs from its in-process aggregate", i)
		}
		select {
		case <-longDone:
			t.Fatalf("the long job ended before short job %d did; the pipeline was not kept full", i)
		default:
		}
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}
	if gotLong.String() != wantLong {
		t.Fatal("long job differs from its in-process aggregate")
	}

	proxy.mu.Lock()
	defer proxy.mu.Unlock()
	if proxy.maxOut > pipelineDepth {
		t.Fatalf("%d ranges outstanding on one connection, want at most pipelineDepth=%d", proxy.maxOut, pipelineDepth)
	}
	if proxy.maxOut < pipelineDepth {
		t.Fatalf("at most %d ranges outstanding; the pipeline never filled, so the bound went untested", proxy.maxOut)
	}
}

// shortRangeWorker answers the first range of its first coordinator
// connection with a RangeDone that carries no results, then reads on until
// the coordinator hangs up. With serveRedials it serves every later
// connection as a real worker; without, its listener is closed after the
// first accept, so every redial is refused.
func shortRangeWorker(t *testing.T, serveRedials bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if !serveRedials {
			ln.Close()
		}
		if err != nil {
			return
		}
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					serveConn(conn, WorkerOptions{Workers: 1})
				}()
			}
		}()
		defer conn.Close()
		fc := frame.NewConn(conn, 0, 0, false)
		if _, err := fc.Accept(hello); err != nil {
			return
		}
		answered := false
		var in message
		for readMessage(fc, &in) == nil {
			if in.tag != tagRange || answered {
				continue
			}
			answered = true
			done := message{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: in.rng.Job, First: in.rng.First}}
			if sendMsgs(fc, &done) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestSessionRequeuesShortRange pins the reader's count check: a range
// acknowledged with fewer results than it holds is a protocol breach that
// kills the connection, and the range must be handed back with the rest of
// the in-flight ones rather than dropped, so the batch still completes
// with the in-process bits: over the redialed worker when it answers, and
// in-process once the shard has retired when it does not.
func TestSessionRequeuesShortRange(t *testing.T) {
	for _, serveRedials := range []bool{true, false} {
		job := sessionJob(t, 6, 5)
		want := inProcessWant(t, job)
		s := NewSession([]string{shortRangeWorker(t, serveRedials)}, Options{ChunkSize: 2, LocalWorkers: 1, Logf: t.Logf})
		merge, got := fingerprint()
		done := make(chan error, 1)
		go func() { done <- s.Run(job, merge) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("serveRedials=%v: Run did not return after a short range; the range was dropped", serveRedials)
		}
		s.Close()
		if got.String() != want {
			t.Fatalf("serveRedials=%v: batch after a short range differs from the in-process aggregate", serveRedials)
		}
	}
}

// TestSessionJobsTakeTurns pins the turn-taking of jobs pipelined over one
// slow connection: a one-chunk job submitted after a long job is already
// streaming gets its range in beside it, so its Run returns while the long
// job still has chunks undelivered.
func TestSessionJobsTakeTurns(t *testing.T) {
	proxy := newPipelineProxy(t, startWorkers(t, 1, WorkerOptions{Workers: 1})[0], 10*time.Millisecond)
	s := NewSession([]string{proxy.addr}, Options{ChunkSize: 1, Logf: t.Logf})
	defer s.Close()

	const longRuns = 24
	long := sessionJob(t, longRuns, 400)
	var longMerged atomic.Int32
	started := make(chan struct{})
	longDone := make(chan error, 1)
	go func() {
		longDone <- s.Run(long, func(int, *sim.Result) error {
			if longMerged.Add(1) == 1 {
				close(started)
			}
			return nil
		})
	}()
	<-started

	short := sessionJob(t, 1, 401)
	want := inProcessWant(t, short)
	merge, got := fingerprint()
	if err := s.Run(short, merge); err != nil {
		t.Fatal(err)
	}
	if n := longMerged.Load(); n >= longRuns {
		t.Fatalf("the short job returned after all %d chunks of the long job were delivered", n)
	}
	if got.String() != want {
		t.Fatal("short job differs from its in-process aggregate")
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}
}

// sessionGoroutines returns the stacks of the goroutines a session starts:
// its shard loops and their connection epochs.
func sessionGoroutines() []string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "cluster.(*Session).shardLoop") || strings.Contains(g, "cluster.(*epoch)") {
			out = append(out, g)
		}
	}
	return out
}

// TestSessionCloseDuringRun closes a session while a job streams over a
// healthy but slow shard: Run must return errSessionClosed promptly, and
// once Close has returned no goroutine of the session is left.
func TestSessionCloseDuringRun(t *testing.T) {
	proxy := newPipelineProxy(t, startWorkers(t, 1, WorkerOptions{Workers: 1})[0], 50*time.Millisecond)
	before := len(sessionGoroutines())
	s := NewSession([]string{proxy.addr}, Options{ChunkSize: 1, Logf: t.Logf})

	started := make(chan struct{})
	var once sync.Once
	runErr := make(chan error, 1)
	go func() {
		runErr <- s.Run(sessionJob(t, 40, 500), func(int, *sim.Result) error {
			once.Do(func() { close(started) })
			return nil
		})
	}()
	<-started
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left := sessionGoroutines(); len(left) > before {
		t.Fatalf("%d session goroutines outlived Close, %d ran before NewSession:\n%s",
			len(left), before, strings.Join(left, "\n\n"))
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, errSessionClosed) {
			t.Fatalf("Run returned %v, want errSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}
