package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"smartexp3/internal/core"
	"smartexp3/internal/criteria"
	"smartexp3/internal/frame"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// testConfig is a small but fully featured scenario: churn, mobility and
// per-slot series, so the fingerprint covers every Result field class.
func testConfig() sim.Config {
	return sim.Config{
		Topology: netmodel.FoodCourt(),
		Devices: []sim.DeviceSpec{
			{Algorithm: core.AlgSmartEXP3, Trajectory: []sim.AreaStay{
				{FromSlot: 0, Area: netmodel.AreaFoodCourt},
				{FromSlot: 30, Area: netmodel.AreaStudyArea},
			}},
			{Algorithm: core.AlgGreedy, Join: 5, Leave: 50},
			{Algorithm: core.AlgSmartEXP3},
			{Algorithm: core.AlgEXP3},
			{Algorithm: core.AlgSmartEXP3NoReset},
		},
		Slots:   60,
		Collect: sim.CollectOptions{Distance: true, Probabilities: true},
	}
}

func testJob(t *testing.T, runs int) JobSpec {
	t.Helper()
	job, err := NewJob(runner.Replications{Runs: runs, Seed: 11, Stream: []int64{3}}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// fingerprint folds a merged batch into a hex transcript: run order and
// every float bit pattern matter, so any reordering, dropped run, double
// merge or numeric drift changes it.
func fingerprint() (merge func(run int, res *sim.Result) error, out *strings.Builder) {
	var sb strings.Builder
	return func(run int, res *sim.Result) error {
		fmt.Fprintf(&sb, "%d:", run)
		for d := range res.Devices {
			fmt.Fprintf(&sb, "%x,%x,%d;", res.Devices[d].DownloadMb, res.Devices[d].DelaySeconds, res.Devices[d].Switches)
		}
		var distSum float64
		for _, v := range res.Distance {
			distSum += v
		}
		fmt.Fprintf(&sb, "%x,%x,%x|", res.FracAtNE, res.FracAtEps, distSum)
		return nil
	}, &sb
}

// runBatch runs one job over a fresh session and closes it — the shape of a
// caller with a single batch. With no shards the whole batch runs
// in-process.
func runBatch(job JobSpec, shards []string, opts Options, merge func(run int, res *sim.Result) error) error {
	s := NewSession(shards, opts)
	defer s.Close()
	return s.Run(job, merge)
}

// startWorkers launches n in-process worker daemons on loopback listeners
// and returns their addresses.
func startWorkers(t *testing.T, n int, opts WorkerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go Serve(ln, opts)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestRunDeterministicAcrossShardCounts is the subsystem's acceptance
// criterion: for a fixed root seed the merged aggregate is byte-identical
// whether the batch runs in-process or over 1, 2 or 4 shards, at several
// chunk sizes.
func TestRunDeterministicAcrossShardCounts(t *testing.T) {
	job := testJob(t, 24)

	merge, want := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 1}, merge); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("in-process run produced no results")
	}

	for _, shards := range []int{1, 2, 4} {
		for _, chunk := range []int{0, 1, 5} {
			t.Run(fmt.Sprintf("shards=%d/chunk=%d", shards, chunk), func(t *testing.T) {
				addrs := startWorkers(t, shards, WorkerOptions{Workers: 2})
				merge, got := fingerprint()
				if err := runBatch(job, addrs, Options{ChunkSize: chunk, Logf: t.Logf}, merge); err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatal("sharded aggregate differs from the in-process aggregate")
				}
			})
		}
	}
}

// cutProxy forwards one TCP connection to backend and kills it after
// forwarding cutAfter bytes of worker→coordinator traffic — a worker dying
// mid result stream, as far as the coordinator can tell. The returned
// channel closes at the first cut.
func cutProxy(t *testing.T, backend string, cutAfter int) (string, <-chan struct{}) {
	t.Helper()
	cut := make(chan struct{})
	var once sync.Once
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
			go func() {
				defer up.Close()
				defer down.Close()
				io.Copy(down, up)
			}()
			go func() {
				defer up.Close()
				defer down.Close()
				io.CopyN(up, down, int64(cutAfter)) // then both sides close: mid-stream death
				once.Do(func() { close(cut) })
			}()
		}
	}()
	return ln.Addr().String(), cut
}

// heldProxy forwards TCP connections to backend, but only once release
// closes: until then an accepted connection goes unanswered, so the
// coordinator's handshake with this worker cannot finish and the worker
// claims no ranges.
func heldProxy(t *testing.T, backend string, release <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			up, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer up.Close()
				select {
				case <-release:
				case <-done:
					return
				}
				down, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer down.Close()
				go func() {
					defer up.Close()
					defer down.Close()
					io.Copy(down, up)
				}()
				io.Copy(up, down)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRunSurvivesWorkerKilledMidBatch kills one of two workers partway
// through its result stream and asserts the aggregate still matches the
// in-process run bit for bit: the unacknowledged ranges are reassigned to
// the surviving worker. The surviving worker is held off until the cut has
// landed; otherwise it could take every range before the flaky worker's
// stream reached the cut point, and no failure would happen at all.
func TestRunSurvivesWorkerKilledMidBatch(t *testing.T) {
	job := testJob(t, 24)
	merge, want := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 1}, merge); err != nil {
		t.Fatal(err)
	}

	// Cut points from mid-handshake to deep into the result stream (the
	// whole 24-run batch is ~24 KB on the persistent codec, so the deepest
	// cut still lands before a lone worker's stream ends).
	for _, cutAfter := range []int{64, 2048, 6144} {
		t.Run(fmt.Sprintf("cutAfter=%d", cutAfter), func(t *testing.T) {
			addrs := startWorkers(t, 2, WorkerOptions{Workers: 1})
			flaky, cut := cutProxy(t, addrs[0], cutAfter)
			healthy := heldProxy(t, addrs[1], cut)
			var logMu sync.Mutex
			var logs []string
			logf := func(format string, args ...any) {
				logMu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				logMu.Unlock()
			}
			merge, got := fingerprint()
			err := runBatch(job, []string{flaky, healthy}, Options{ChunkSize: 2, Logf: logf}, merge)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatal("aggregate after worker death differs from the in-process aggregate")
			}
			logMu.Lock()
			defer logMu.Unlock()
			if len(logs) == 0 {
				t.Fatal("expected the coordinator to log the shard failure")
			}
		})
	}
}

// stallProxy forwards one TCP connection to backend but freezes the
// worker→coordinator direction after stallAfter bytes — the connection
// stays open, no FIN, no RST: a worker that hangs rather than dies.
func stallProxy(t *testing.T, backend string, stallAfter int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
			t.Cleanup(func() { up.Close(); down.Close() })
			go io.Copy(down, up)
			go func() {
				io.CopyN(up, down, int64(stallAfter))
				// Then go silent forever: keep both conns open, copy nothing.
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRunSurvivesStalledWorker pins the frame-timeout path: a worker that
// stops responding without closing its connection must be timed out, its
// chunk reassigned, and the aggregate left bit-identical.
func TestRunSurvivesStalledWorker(t *testing.T) {
	job := testJob(t, 16)
	merge, want := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 1}, merge); err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 2, WorkerOptions{Workers: 1})
	stalled := stallProxy(t, addrs[0], 4096)
	merge2, got := fingerprint()
	err := runBatch(job, []string{stalled, addrs[1]},
		Options{ChunkSize: 2, FrameTimeout: 300 * time.Millisecond, Logf: t.Logf}, merge2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("aggregate after a stalled worker differs from the in-process aggregate")
	}
}

// TestRunFallsBackWhenAllWorkersDie points the coordinator at one flaky
// worker and one closed port: after both shards retire, the Run must
// finish the batch in-process with an unchanged aggregate.
func TestRunFallsBackWhenAllWorkersDie(t *testing.T) {
	job := testJob(t, 16)
	merge, want := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 1}, merge); err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 1, WorkerOptions{Workers: 1})
	flaky, _ := cutProxy(t, addrs[0], 4096)
	dead := reservedClosedPort(t)
	merge2, got := fingerprint()
	err := runBatch(job, []string{flaky, dead}, Options{ChunkSize: 2, LocalWorkers: 2, Logf: t.Logf}, merge2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("aggregate after total worker loss differs from the in-process aggregate")
	}
}

// reservedClosedPort returns an address that is guaranteed closed: bound
// once and released, so dialing it fails fast.
func reservedClosedPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunMatchesSimReplicate pins the cluster path against the established
// in-process API: a session with no shards must equal sim.Replicate for
// the same batch.
func TestRunMatchesSimReplicate(t *testing.T) {
	cfg := testConfig()
	batch := runner.Replications{Runs: 12, Workers: 3, Seed: 11, Stream: []int64{3}}
	mergeA, want := fingerprint()
	if err := sim.Replicate(batch, cfg, mergeA); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(batch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mergeB, got := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 3}, mergeB); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("cluster in-process run differs from sim.Replicate")
	}
}

// TestShardable enumerates the process-local fields that must refuse to
// serialize.
func TestShardable(t *testing.T) {
	base := testConfig()
	if err := Shardable(base); err != nil {
		t.Fatalf("plain config must be shardable: %v", err)
	}
	withFactory := base
	withFactory.PolicyFactory = func(_ int, available []int, rng *rand.Rand) (core.Policy, error) {
		return core.New(core.AlgEXP3, available, core.DefaultConfig(), rng)
	}
	withSampler := base
	withSampler.WiFiDelay = constSampler(0.5)
	withCore := base
	withCore.Core = core.DefaultConfig()
	// The codec decodes an empty list as nil, so explicitly empty
	// DeviceGroups/NetworkCosts would silently change meaning in flight.
	withEmptyGroups := base
	withEmptyGroups.DeviceGroups = [][]int{}
	withEmptyCosts := base
	withEmptyCosts.NetworkCosts = []criteria.Costs{}
	for name, cfg := range map[string]sim.Config{
		"policy-factory":     withFactory,
		"custom-sampler":     withSampler,
		"custom-core":        withCore,
		"empty-devicegroups": withEmptyGroups,
		"empty-networkcosts": withEmptyCosts,
	} {
		if err := Shardable(cfg); err == nil {
			t.Errorf("%s: expected Shardable to refuse", name)
		}
		if _, err := NewJob(runner.Replications{Runs: 1}, cfg); err == nil {
			t.Errorf("%s: expected NewJob to refuse", name)
		}
	}
}

type constSampler float64

func (c constSampler) Sample(*rand.Rand) float64 { return float64(c) }

// TestWorkerRejectsBadJob ships a job whose config cannot compile (zero
// slots); the worker answers its range with the compile error, and the
// coordinator must surface it as the job's fatal error, not retry it
// around the cluster.
func TestWorkerRejectsBadJob(t *testing.T) {
	job := testJob(t, 4)
	job.Config.Slots = 0
	_, compileErr := sim.NewEngine(job.Config)
	if compileErr == nil {
		t.Fatal("a zero-slot config compiled")
	}
	addrs := startWorkers(t, 1, WorkerOptions{})
	merge, _ := fingerprint()
	err := runBatch(job, addrs, Options{}, merge)
	if err == nil || !strings.Contains(err.Error(), ": "+compileErr.Error()) {
		t.Fatalf("want the worker's compile error for the job's range, got %v", err)
	}
}

// dialRaw opens a hand-driven protocol connection: a frame.Conn with no
// deadlines, through which the test plays the coordinator.
func dialRaw(t *testing.T, addr string) *frame.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return frame.NewConn(conn, 0, 0, false)
}

// TestWorkerRejectsVersionMismatch speaks a wrong protocol version — the
// previous one, a stale coordinator's that registers jobs before their
// ranges, and the next one — and expects a refusal at hello.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	addrs := startWorkers(t, 1, WorkerOptions{})
	for _, version := range []int{protocolVersion - 1, protocolVersion + 1} {
		fc := dialRaw(t, addrs[0])
		ack, err := fc.Greet(frame.Hello{Proto: hello.Proto, Version: version})
		if !errors.Is(err, frame.ErrHandshake) || ack.Err == "" {
			t.Fatalf("v%d: want a version refusal, got %+v, %v", version, ack, err)
		}
	}
}

// TestWorkerRejectsCorruptRange speaks the protocol by hand and sends a
// range whose First+Count overflows int: the worker must drop the session
// instead of executing out-of-batch run indices.
func TestWorkerRejectsCorruptRange(t *testing.T) {
	addrs := startWorkers(t, 1, WorkerOptions{})
	fc := dialRaw(t, addrs[0])
	if _, err := fc.Greet(hello); err != nil {
		t.Fatalf("handshake failed: %v", err)
	}
	job := testJob(t, 8)
	const maxInt = int(^uint(0) >> 1)
	corrupt := rangeOf(1, maxInt, 1, &job)
	if err := sendMsgs(fc, &corrupt); err != nil {
		t.Fatal(err)
	}
	// The worker must close the connection without emitting a result.
	if env, err := nextMsg(fc); err == nil {
		t.Fatalf("worker answered a corrupt range with %+v", env)
	}
}

// TestWorkerRejectsUnknownJobRange sends ranges whose job the worker
// cannot know — no config at all, a config cut short, a config followed
// by a stray byte: the worker must drop the connection rather than guess.
func TestWorkerRejectsUnknownJobRange(t *testing.T) {
	addrs := startWorkers(t, 1, WorkerOptions{})
	job := testJob(t, 8)
	config := appendConfig(nil, &job.Config)
	for name, bad := range map[string][]byte{
		"no config":  nil,
		"cut short":  config[:len(config)-1],
		"stray byte": append(bytes.Clone(config), 0),
	} {
		fc := dialRaw(t, addrs[0])
		if _, err := fc.Greet(hello); err != nil {
			t.Fatalf("%s: handshake failed: %v", name, err)
		}
		r := rangeOf(1, 0, 1, &job)
		r.rng.Config = bad
		if err := sendMsgs(fc, &r); err != nil {
			t.Fatal(err)
		}
		if env, err := nextMsg(fc); err == nil {
			t.Fatalf("%s: worker answered a range it cannot know the job of with %+v", name, env)
		}
	}
}

// TestParseShards pins the flag-value parsing both CLIs share.
func TestParseShards(t *testing.T) {
	for give, want := range map[string][]string{
		"":                       nil,
		" , ,":                   nil,
		"h1:9631":                {"h1:9631"},
		"h1:9631,h2:9631":        {"h1:9631", "h2:9631"},
		" h1:9631 , , h2:9631 ,": {"h1:9631", "h2:9631"},
	} {
		got := ParseShards(give)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ParseShards(%q) = %v, want %v", give, got, want)
		}
	}
}

// TestRunEmptyBatch is the zero-work edge: no runs, no connections, no
// merges.
func TestRunEmptyBatch(t *testing.T) {
	job := testJob(t, 24)
	job.Runs = 0
	merge, out := fingerprint()
	if err := runBatch(job, []string{"127.0.0.1:1"}, Options{}, merge); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("empty batch must not merge anything")
	}
}
