package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartexp3/internal/cluster"
)

func TestParseTopology(t *testing.T) {
	tests := []struct {
		give       string
		wantNets   int
		wantErr    bool
		wantSpread bool
	}{
		{give: "setting1", wantNets: 3},
		{give: "SETTING2", wantNets: 3},
		{give: "foodcourt", wantNets: 5},
		{give: "uniform:5:11", wantNets: 5},
		{give: "large", wantNets: 204, wantSpread: true},
		{give: "metro:4:3:2", wantNets: 14, wantSpread: true},
		{give: "uniform:bad", wantErr: true},
		{give: "uniform:x:11", wantErr: true},
		{give: "uniform:5:y", wantErr: true},
		// Malformed metro specs must come back as errors, never panics:
		// parseTopology validates the spec before Generate (which panics on
		// invalid specs by contract) ever sees it.
		{give: "metro:4:3", wantErr: true},                   // too few dimensions
		{give: "metro:4:3:2:1", wantErr: true},               // too many dimensions
		{give: "metro:0:3:2", wantErr: true},                 // zero areas
		{give: "metro:-1:3:2", wantErr: true},                // negative areas
		{give: "metro:a:3:2", wantErr: true},                 // non-numeric areas
		{give: "metro:4:b:2", wantErr: true},                 // non-numeric APs
		{give: "metro:4:3:c", wantErr: true},                 // non-numeric cells
		{give: "metro:2:0:0", wantErr: true},                 // every area empty
		{give: "metro:2:-1:2", wantErr: true},                // negative APs
		{give: "metro:2:2:-2", wantErr: true},                // negative cells
		{give: "metro:", wantErr: true},                      // nothing at all
		{give: "metro:2:0:3", wantNets: 3, wantSpread: true}, // cells-only metro is valid
		{give: "mars", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			top, spread, err := parseTopology(tt.give)
			if tt.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(top.Networks) != tt.wantNets {
				t.Fatalf("got %d networks, want %d", len(top.Networks), tt.wantNets)
			}
			if spread != tt.wantSpread {
				t.Fatalf("spread = %v, want %v", spread, tt.wantSpread)
			}
			if err := top.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunLargeTopology exercises the `-topology large` path end to end at a
// small horizon: 204 networks, 40 areas, devices spread round-robin.
func TestRunLargeTopology(t *testing.T) {
	if err := run([]string{"-topology", "large", "-devices", "60", "-slots", "12", "-runs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallSimulation(t *testing.T) {
	if err := run([]string{"-devices", "4", "-slots", "60", "-algorithm", "greedy"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	err := run([]string{"-algorithm", "sarsa", "-slots", "10"})
	if err == nil || !strings.Contains(err.Error(), "algorithm") {
		t.Fatalf("error = %v", err)
	}
}

func TestWriteAndReplayConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := run([]string{"-devices", "3", "-slots", "40", "-writeconfig", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsMissingConfig(t *testing.T) {
	if err := run([]string{"-config", "/nonexistent/sc.json"}); err == nil {
		t.Fatal("want error for missing config file")
	}
}

// TestSingleRunPrintsAlgorithmsInDeviceOrder pins the single-run summary's
// algorithms line for a mixed scenario: each algorithm once, in the order
// it first appears among the devices, with its device count — the same
// line on every run.
func TestSingleRunPrintsAlgorithmsInDeviceOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.json")
	const mixed = `{"name": "mixed",
  "networks": [{"name": "w", "type": "wifi", "bandwidthMbps": 4},
               {"name": "c", "type": "cellular", "bandwidthMbps": 11}],
  "devices": [{"algorithm": "smart", "count": 2}, {"algorithm": "greedy"},
              {"algorithm": "exp3", "count": 3}, {"algorithm": "smart"}],
  "slots": 20, "seed": 3}`
	if err := os.WriteFile(path, []byte(mixed), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "algorithms           Smart EXP3 x3, Greedy x1, EXP3 x3"
	for i := 0; i < 8; i++ {
		out := captureStdout(t, func() error { return run([]string{"-config", path}) })
		var got string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "algorithms") {
				got = line
			}
		}
		if got != want {
			t.Fatalf("run %d printed %q, want %q", i, got, want)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	out := <-done
	os.Stdout = orig
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// aggregateLines drops the header ("replications N (workers|shards ...)")
// and returns the aggregate block, which must be byte-identical across
// execution shapes.
func aggregateLines(t *testing.T, out string) string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "\n")
	if !ok || !strings.HasPrefix(out, "replications") {
		t.Fatalf("unexpected replication output:\n%s", out)
	}
	return rest
}

// TestShardsRejectNonSerializableConfigUpFront pins the early validation: a
// configuration that cannot cross the wire (here a JSON scenario with an
// explicitly empty device-group list, which gob cannot distinguish from an
// absent one) combined with -shards must fail immediately with the reason,
// not deep inside the cluster dispatch. The shard address points at a
// reserved port nothing listens on: the error must arrive without a dial
// attempt ever mattering.
func TestShardsRejectNonSerializableConfigUpFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	scenario := `{
		"name": "grouped",
		"networks": [{"name": "a", "type": "wifi", "bandwidthMbps": 10}],
		"devices": [{"algorithm": "smart", "count": 3}],
		"slots": 20,
		"groups": []
	}`
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-config", path, "-runs", "4", "-shards", "127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "cannot run on a cluster") {
		t.Fatalf("want an upfront -shards validation error, got %v", err)
	}
	// Without -shards the same scenario runs fine in-process.
	if err := run([]string{"-config", path, "-runs", "2"}); err != nil {
		t.Fatalf("in-process run of the same scenario failed: %v", err)
	}
}

// TestShardedAggregatesMatchInProcess is the CLI half of the acceptance
// criterion: for a fixed seed, `simulate -runs N` and `simulate -runs N
// -shards a,b` print byte-identical aggregate lines.
func TestShardedAggregatesMatchInProcess(t *testing.T) {
	args := []string{"-topology", "setting1", "-devices", "5", "-slots", "50", "-runs", "12", "-seed", "7"}
	local := captureStdout(t, func() error { return run(args) })

	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go cluster.Serve(ln, cluster.WorkerOptions{})
		addrs = append(addrs, ln.Addr().String())
	}
	sharded := captureStdout(t, func() error {
		return run(append(args, "-shards", strings.Join(addrs, ",")))
	})

	if aggregateLines(t, sharded) != aggregateLines(t, local) {
		t.Fatalf("sharded aggregates differ from in-process:\nlocal:\n%s\nsharded:\n%s", local, sharded)
	}
}

// sweepBlocks splits a -seeds sweep's output into per-seed aggregate
// blocks, dropping the "seed N: replications ..." header of each.
func sweepBlocks(t *testing.T, out string) []string {
	t.Helper()
	var blocks []string
	cur := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "seed ") {
			blocks = append(blocks, "")
			cur++
			continue
		}
		if cur >= 0 && line != "" {
			blocks[cur] += line + "\n"
		}
	}
	return blocks
}

// countingListener counts accepted connections, so the sweep test can
// assert the session shape, not just the results. The count is written on
// the cluster.Serve goroutine and read by the test.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (cl *countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err == nil {
		cl.accepted.Add(1)
	}
	return c, err
}

// TestSeedSweepMatchesPerSeedRunsOverOneSession is the -seeds acceptance
// check: each seed's aggregate block is byte-identical to a standalone
// -seed run of the same batch, in-process and sharded — and the sharded
// sweep holds ONE session, so each worker accepts exactly one connection
// for the whole multi-seed sweep.
func TestSeedSweepMatchesPerSeedRunsOverOneSession(t *testing.T) {
	base := []string{"-topology", "setting1", "-devices", "5", "-slots", "50", "-runs", "8"}
	seeds := []string{"7", "11"}
	var want []string
	for _, s := range seeds {
		out := captureStdout(t, func() error { return run(append(base, "-seed", s)) })
		want = append(want, aggregateLines(t, out))
	}

	local := captureStdout(t, func() error {
		return run(append(base, "-seeds", strings.Join(seeds, ",")))
	})
	for i, got := range sweepBlocks(t, local) {
		if got != want[i] {
			t.Fatalf("in-process sweep block for seed %s differs:\n%s\nwant:\n%s", seeds[i], got, want[i])
		}
	}

	var addrs []string
	var listeners []*countingListener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		cl := &countingListener{Listener: ln}
		go cluster.Serve(cl, cluster.WorkerOptions{})
		listeners = append(listeners, cl)
		addrs = append(addrs, ln.Addr().String())
	}
	sharded := captureStdout(t, func() error {
		return run(append(base, "-seeds", strings.Join(seeds, ","), "-shards", strings.Join(addrs, ",")))
	})
	for i, got := range sweepBlocks(t, sharded) {
		if got != want[i] {
			t.Fatalf("sharded sweep block for seed %s differs:\n%s\nwant:\n%s", seeds[i], got, want[i])
		}
	}
	// A session's dial can complete before the worker's Accept returns,
	// so give each count a bounded time to settle before asserting it.
	for i, cl := range listeners {
		for deadline := time.Now().Add(5 * time.Second); cl.accepted.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := cl.accepted.Load(); n != 1 {
			t.Fatalf("worker %d accepted %d connections over the sweep, want exactly 1", i, n)
		}
	}

	if err := run(append(base, "-seeds", "7,x")); err == nil ||
		!strings.Contains(err.Error(), "-seeds entry") {
		t.Fatalf("malformed -seeds must be rejected, got %v", err)
	}
}

// TestRunWithDebugAddr smokes the -debug-addr flag: the run must bring the
// debug listener up, complete normally, and reject an unbindable address.
func TestRunWithDebugAddr(t *testing.T) {
	if err := run([]string{"-devices", "4", "-slots", "30", "-runs", "3", "-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-devices", "4", "-slots", "10", "-debug-addr", "not-an-address"}); err == nil {
		t.Fatal("want an error for an unbindable -debug-addr")
	}
}
