package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/fleet"
	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

// TestParsePeers pins the roster flag grammar.
func TestParsePeers(t *testing.T) {
	roster, err := parsePeers("b=h2:1@h2:2, a=h1:1@h1:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(roster) != 2 || roster[0].ID != "b" || roster[1].Control != "h1:2" {
		t.Fatalf("parsed roster %+v", roster)
	}
	for _, bad := range []string{
		"",
		"a=h1:1",          // no control address
		"a@h1:1@h1:2",     // no id separator
		"=h1:1@h1:2",      // empty id
		"a=@h1:2",         // empty data address
		"a=h:1@h:2,a=x@y", // duplicate id
	} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

// TestRunRejectsBadFlags pins the flag surface without starting listeners.
func TestRunRejectsBadFlags(t *testing.T) {
	roster := "a=127.0.0.1:1@127.0.0.1:2"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "greedy", "-id", "a", "-bootstrap", "-peers", roster}, "unknown algorithm"},
		{[]string{"-bootstrap", "-peers", roster}, "-id is required"},
		{[]string{"-id", "a", "-peers", roster}, "exactly one of -bootstrap or -join"},
		{[]string{"-id", "a", "-bootstrap", "-join", "-peers", roster}, "exactly one of -bootstrap or -join"},
		{[]string{"-id", "a", "-bootstrap"}, "-peers is empty"},
		{[]string{"-id", "x", "-bootstrap", "-peers", roster}, "appear in -peers"},
		{[]string{"-id", "a", "-bootstrap", "-peers", roster, "-stripes", "0"}, "out of range"},
		{[]string{"-id", "a", "-bootstrap", "-peers", roster, "-snapshot-every", "1m"}, "requires -snapshot"},
		{[]string{"-rebalance-once"}, "-peers is empty"},
		// -join against a dead roster must fail loudly, not boot a peer
		// that owns nothing and can never learn the table.
		{[]string{"-id", "x", "-join", "-peers", roster, "-quiet"}, "could not fetch a table"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// buildFleetd compiles the daemon binary the smoke test execs.
func buildFleetd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fleetd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePorts reserves n distinct ephemeral loopback addresses and releases
// them together for daemons to bind. Every probe stays open until all n
// are taken, so no two addresses can coincide.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		addrs[i] = probe.Addr().String()
	}
	return addrs
}

// peerProc is one real fleetd process under test.
type peerProc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

// startPeer execs the fleetd binary and waits until both its listeners
// accept. The process is killed at test cleanup if still running; its
// stderr is dumped on failure.
func startPeer(t *testing.T, bin, data, ctrl string, args ...string) *peerProc {
	t.Helper()
	p := &peerProc{cmd: exec.Command(bin, args...), stderr: &bytes.Buffer{}}
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("fleetd %v stderr:\n%s", p.cmd.Args[1:], p.stderr)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range []string{data, ctrl} {
		for {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleetd %v never listened on %s: %v\nstderr:\n%s", p.cmd.Args[1:], addr, err, p.stderr)
			}
			if p.cmd.ProcessState != nil {
				t.Fatalf("fleetd %v exited early\nstderr:\n%s", p.cmd.Args[1:], p.stderr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return p
}

// learnedBytes encodes a snapshot with Dropped zeroed: migrations and
// resends legitimately drop slot-duplicates, so the determinism claim is
// about the learned state itself.
func learnedBytes(t *testing.T, sn *serve.Snapshot) []byte {
	t.Helper()
	sn.Dropped = 0
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smokeReward is the deterministic environment shared between the fleet
// and the reference store.
func smokeReward(device uint64, arm, slot int) float64 {
	return float64((device*31+uint64(arm)*7+uint64(slot)*13)%97) / 97
}

// TestFleetSmokeThreeProcesses is the daemon-level acceptance run: three
// real fleetd processes serve a scripted workload through one
// coordinator rebalance (run as a fourth fleetd process) and one SIGKILL
// of a checkpointed peer, and every decision plus the merged final
// snapshots must be bit-identical to one uninterrupted in-process store.
// It also scrapes a peer's /metrics for the fleet counter set.
func TestFleetSmokeThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("execs real daemon processes")
	}
	bin := buildFleetd(t)
	dir := t.TempDir()

	type peerAddrs struct{ data, ctrl, snap string }
	ports := freePorts(t, 7)
	addrs := map[string]peerAddrs{}
	for i, id := range []string{"a", "b", "c"} {
		addrs[id] = peerAddrs{ports[2*i], ports[2*i+1], filepath.Join(dir, id+".snap")}
	}
	entry := func(id string) string { return id + "=" + addrs[id].data + "@" + addrs[id].ctrl }
	roster2 := entry("a") + "," + entry("b")
	roster3 := roster2 + "," + entry("c")
	debugAddr := ports[6]

	common := func(id string, extra ...string) []string {
		return append([]string{
			"-id", id, "-listen", addrs[id].data, "-control", addrs[id].ctrl,
			"-snapshot", addrs[id].snap,
		}, extra...)
	}
	startPeer(t, bin, addrs["a"].data, addrs["a"].ctrl,
		common("a", "-bootstrap", "-peers", roster2, "-debug-addr", debugAddr)...)
	procB := startPeer(t, bin, addrs["b"].data, addrs["b"].ctrl,
		common("b", "-bootstrap", "-peers", roster2)...)
	startPeer(t, bin, addrs["c"].data, addrs["c"].ctrl,
		common("c", "-join", "-peers", roster3)...)

	// The uninterrupted reference: daemon defaults (smart, seed 1).
	ref, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arms := []int{10, 20, 30}
	devices := make([]uint64, 16)
	for i := range devices {
		devices[i] = uint64(i + 1)
	}

	client, err := fleet.NewClient(fleet.ClientOptions{
		Controls:     []string{addrs["a"].ctrl, addrs["b"].ctrl, addrs["c"].ctrl},
		FrameTimeout: 5 * time.Second,
		MaxAttempts:  50,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := client.Table().Epoch; got != 1 {
		t.Fatalf("bootstrap epoch = %d, want 1", got)
	}

	drive := func(from, to int) {
		t.Helper()
		for slot := from; slot < to; slot++ {
			for _, dev := range devices {
				wantArm, refSlot, err := ref.Select(dev, arms)
				if err != nil {
					t.Fatal(err)
				}
				got, err := client.Select(dev, arms)
				if err != nil {
					t.Fatalf("slot %d device %d: %v", slot, dev, err)
				}
				if got != wantArm {
					t.Fatalf("slot %d device %d: fleet chose %d, reference store %d", slot, dev, got, wantArm)
				}
				r := smokeReward(dev, wantArm, slot)
				ref.Feedback(dev, wantArm, refSlot, r)
				if err := client.Feedback(dev, got, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	drive(0, 60)

	// One coordinator rebalance, run as a real fleetd process: peer c is
	// admitted and takes over its rendezvous share of the stripes.
	out, err := exec.Command(bin, "-rebalance-once", "-peers", roster3).CombinedOutput()
	if err != nil {
		t.Fatalf("rebalance-once: %v\n%s", err, out)
	}
	drive(60, 120)
	if client.Redirects() == 0 {
		t.Fatal("the rebalance moved no traffic the client noticed; the test proved nothing")
	}
	if got := client.Table().Epoch; got != 2 {
		t.Fatalf("client healed to epoch %d, want 2", got)
	}

	// Checkpoint peer b over the control protocol, SIGKILL it, restart it
	// from the snapshot with -join: no decision may change. The Flush is
	// the barrier that gets every buffered feedback applied before the
	// checkpoint cuts the state that must survive the kill.
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Checkpoint(addrs["b"].ctrl, "smoke", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	procB.cmd.Process.Kill()
	procB.cmd.Wait()
	startPeer(t, bin, addrs["b"].data, addrs["b"].ctrl,
		common("b", "-join", "-peers", roster3, "-quiet")...)

	drive(120, 180)

	// Merge the three final snapshots: the fleet's learned state must be
	// bit-identical to the uninterrupted store's.
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	var snaps []*serve.Snapshot
	for _, id := range []string{"a", "b", "c"} {
		if err := fleet.Checkpoint(addrs[id].ctrl, "smoke", 5*time.Second); err != nil {
			t.Fatalf("checkpoint %s: %v", id, err)
		}
		st, err := serve.NewStore(serve.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadFile(addrs[id].snap); err != nil {
			t.Fatalf("load %s snapshot: %v", id, err)
		}
		snaps = append(snaps, st.Snapshot())
	}
	merged, err := fleet.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(learnedBytes(t, merged), learnedBytes(t, ref.Snapshot())) {
		t.Fatal("merged fleet snapshots differ from the uninterrupted store's state")
	}

	// The debug listener on peer a must expose the fleet counter set as
	// parseable Prometheus text, with the committed epoch on the gauge.
	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.CheckPrometheusText(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics not parseable Prometheus text: %v\n%s", err, body)
	}
	for _, want := range []string{
		"fleet_table_epoch 2",
		"fleet_redirects_total",
		"fleet_migrations_total",
		"fleet_migrated_devices_total",
		"fleet_migrated_bytes_total",
		"fleet_migration_latency_ns",
		"serve_select_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Orderly SIGTERM on one peer at the end proves the signal path
	// flushes: its snapshot file must be rewritten after this point.
	if err := os.Remove(addrs["c"].snap); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Checkpoint(addrs["c"].ctrl, "smoke", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(addrs["c"].snap); err != nil {
		t.Fatalf("checkpoint did not rewrite the snapshot: %v", err)
	}
}
