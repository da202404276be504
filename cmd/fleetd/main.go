// Command fleetd is one peer of a sharded decision-service fleet: a
// served-style daemon (internal/serve) that owns a slice of the device-id
// space under a versioned partition table (internal/fleet), answers
// Select / Feedback for its slice, and redirects everything else to the
// owning peer. A second listener (-control) speaks the fleet control
// protocol: table fetch for joining peers and clients, snapshot-handoff
// migration driven by a coordinator, and remote checkpoint.
//
// A fleet boots in two steps. Every founding peer starts with -bootstrap
// and the same -peers roster: fleet.NewTable is deterministic over the
// roster, so each founder compiles the identical epoch-1 table with no
// rendezvous beyond the shared flag line. A later peer starts with -join
// instead and fetches the current table from the first reachable roster
// control address — it owns nothing until a rebalance admits it.
//
// Rebalancing is explicit, never automatic. `fleetd -rebalance-once
// -peers ...` runs one coordinator pass and exits: it probes the roster,
// computes the next table over the live peers, drains each moving stripe
// on its old owner (traffic redirects mid-handoff; no decision is lost or
// doubled), ships the cut over the framed wire, and commits the bumped
// epoch fleet-wide. -rebalance-every runs the same pass on a timer inside
// a serving peer, for fleets that prefer a resident coordinator.
//
// State, snapshots, eviction-free determinism, -debug-addr and
// -metrics-log-every all behave exactly as in served; /metrics
// additionally carries the fleet_* counter set (redirects, table epoch,
// migration volume). With -snapshot set the peer also honours the
// control protocol's checkpoint request, which is how a coordinator
// flushes a peer before taking it down: kill a checkpointed peer with
// SIGKILL and restart it with -join -snapshot and the fleet's merged
// state is bit-identical to an uninterrupted run.
//
// The lifecycle and the accept loop are served's (cmd/internal/daemon,
// internal/frame); fleetd adds only its peer, control listener and
// rebalance ticker.
//
// Usage:
//
//	fleetd -id a -listen :9700 -control :9701 -bootstrap \
//	       -peers "a=host1:9700@host1:9701,b=host2:9700@host2:9701"
//	fleetd -id c -listen :9700 -control :9701 -join \
//	       -peers "a=host1:9700@host1:9701"          # fetch table, own nothing yet
//	fleetd -rebalance-once -peers "a=...@...,b=...@...,c=...@..."
//	fleetd -id a ... -snapshot /var/lib/fleetd-a.snap -debug-addr 127.0.0.1:9633
//
// Like served and shardd, both protocols are unauthenticated and
// unencrypted: run fleetd only on networks where every peer is trusted.
package main

import (
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"smartexp3/cmd/internal/daemon"
	"smartexp3/internal/fleet"
	"smartexp3/internal/serve"
)

func main() { daemon.Main("fleetd", run) }

// parsePeers decodes the -peers roster: comma-separated
// "id=dataAddr@controlAddr" entries, order-insensitive (the table builder
// sorts by id).
func parsePeers(s string) ([]fleet.PeerInfo, error) {
	if s == "" {
		return nil, fmt.Errorf("-peers is empty")
	}
	var roster []fleet.PeerInfo
	seen := make(map[string]bool)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		id, addrs, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q: want id=dataAddr@controlAddr", ent)
		}
		data, ctrl, ok := strings.Cut(addrs, "@")
		if !ok {
			return nil, fmt.Errorf("peer entry %q: want id=dataAddr@controlAddr", ent)
		}
		if id == "" || data == "" || ctrl == "" {
			return nil, fmt.Errorf("peer entry %q: empty id or address", ent)
		}
		if seen[id] {
			return nil, fmt.Errorf("peer id %q listed twice", id)
		}
		seen[id] = true
		roster = append(roster, fleet.PeerInfo{ID: id, Addr: data, Control: ctrl})
	}
	return roster, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
	var (
		id        = fs.String("id", "", "this peer's id in the -peers roster")
		listen    = fs.String("listen", "127.0.0.1:9700", "address to serve Select/Feedback on")
		control   = fs.String("control", "127.0.0.1:9701", "address to serve the fleet control protocol on")
		peersFlag = fs.String("peers", "", `fleet roster: comma-separated "id=dataAddr@controlAddr"`)
		bootstrap = fs.Bool("bootstrap", false, "install the deterministic epoch-1 table over -peers at boot")
		join      = fs.Bool("join", false, "fetch the current table from a -peers control address at boot")
		stripes   = fs.Int("stripes", fleet.DefaultStripeBits, "partition-table stripe bits (2^bits stripes; -bootstrap only)")
		rebOnce   = fs.Bool("rebalance-once", false, "run one coordinator rebalance over -peers and exit (no listeners)")
		rebEvery  = fs.Duration("rebalance-every", 0, "also run a coordinator rebalance over -peers at this interval (0 disables)")
		flags     = daemon.Register(fs)
	)
	fs.Lookup("seed").Usage += " — must match fleet-wide"
	fs.Lookup("snapshot").Usage += " and control-protocol checkpoint"
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *rebOnce {
		roster, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		self := *id
		if self == "" {
			self = "coordinator"
		}
		coord := &fleet.Coordinator{Self: self}
		tab, err := coord.Rebalance(roster)
		if err != nil {
			return err
		}
		flags.Logf("rebalanced to epoch %d over %d peers", tab.Epoch, len(tab.Peers))
		return nil
	}

	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	if *bootstrap == *join {
		return fmt.Errorf("exactly one of -bootstrap or -join is required")
	}
	roster, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if *bootstrap {
		found := false
		for _, p := range roster {
			found = found || p.ID == *id
		}
		if !found {
			return fmt.Errorf("-bootstrap requires -id %q to appear in -peers", *id)
		}
	}

	d, err := flags.Open(serve.Config{})
	if err != nil {
		return err
	}
	// The fleet counter set rides the daemon's registry, when it has one.
	var fm *fleet.Metrics
	if d.Registry != nil {
		fm = fleet.NewMetrics(d.Registry)
	}
	peer, err := fleet.NewPeer(d.Store, fleet.PeerOptions{
		ID:           *id,
		SnapshotPath: d.SnapshotPath(),
		Metrics:      fm,
	})
	if err != nil {
		return err
	}

	switch {
	case *bootstrap:
		if *stripes < 1 || *stripes > 16 {
			return fmt.Errorf("-stripes %d out of range [1,16]", *stripes)
		}
		tab, err := fleet.NewTable(uint8(*stripes), roster)
		if err != nil {
			return err
		}
		if err := peer.InstallTable(tab); err != nil {
			return err
		}
		d.Logf("bootstrapped epoch %d over %d peers, %d stripes", tab.Epoch, len(tab.Peers), tab.Stripes())
	case *join:
		var tab *fleet.Table
		var lastErr error
		for _, p := range roster {
			if p.ID == *id {
				continue
			}
			if tab, lastErr = fleet.FetchTable(p.Control, *id, 5*time.Second); lastErr == nil {
				break
			}
		}
		if tab == nil {
			return fmt.Errorf("-join could not fetch a table from any roster peer: %w", lastErr)
		}
		if err := peer.InstallTable(tab); err != nil {
			return err
		}
		d.Logf("joined at epoch %d (%d peers); this peer owns nothing until a rebalance admits it", tab.Epoch, len(tab.Peers))
	}

	closeDebug, err := d.ServeDebug(d.Registry, d.Logf)
	if err != nil {
		return err
	}
	defer closeDebug()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	ctrlLn, err := net.Listen("tcp", *control)
	if err != nil {
		return err
	}
	d.Logf("peer %s serving %v on %s, control on %s", *id, d.Store.Config().Algorithm, ln.Addr(), ctrlLn.Addr())
	return d.Serve(ln, daemon.Chore{Every: *rebEvery, Run: func() {
		coord := &fleet.Coordinator{Self: *id, Metrics: fm}
		if tab, err := coord.Rebalance(roster); err != nil {
			d.Logf("rebalance failed: %v", err)
		} else {
			d.Logf("rebalanced to epoch %d over %d peers", tab.Epoch, len(tab.Peers))
		}
	}}, daemon.Plane{Listener: ctrlLn, Serve: peer.ServeControl, Close: peer.Close})
}
