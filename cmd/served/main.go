// Command served is the bandit-as-a-service decision daemon: it holds one
// Smart EXP3 policy per device session and answers Select / Feedback over
// the serve wire (internal/serve, framed by internal/frame), so fleets of
// clients outsource their per-slot network choice to a process that
// survives them. The daemon links only the decision service and its
// transport — not the simulator — and refuses by name a client of
// another protocol (a cluster coordinator or fleet coordinator dialed at
// the wrong port) at the first frame.
//
// State is per-device and seeded per-device (rngutil.ChildSeed of -seed and
// the device id), so the daemon's decisions are a deterministic function of
// its flags and the request history. With -snapshot set, the daemon
// restores that state at boot, persists it on SIGTERM/SIGINT before
// exiting, and (with -snapshot-every) checkpoints it periodically — a
// restart resumes every device's learned weights bit for bit.
//
// With -evict-idle set, a background sweep retires device sessions that
// have gone quiet — clients that vanished without Release — bounding the
// daemon's memory by its active fleet rather than its lifetime. Eviction
// does not bend determinism: an evicted device that comes back re-joins
// from its per-device root seed, exactly like a device the client released.
// -evict-every tunes the sweep cadence (default: a quarter of -evict-idle).
//
// With -debug-addr set, the daemon serves its instrumentation on a second,
// private listener: Prometheus text on /metrics, a JSON snapshot on /varz,
// and the pprof profiles on /debug/pprof/. Metrics are observation-only —
// the decisions served are bit-identical with or without the flag — and the
// hot path stays allocation-free with them enabled. -metrics-log-every adds
// a periodic structured log line of counter deltas for fleets that scrape
// logs rather than endpoints.
//
// Usage:
//
//	served                                  # listen on 127.0.0.1:9632
//	served -listen 0.0.0.0:9632 -alg smart  # serve Smart EXP3 to the network
//	served -snapshot /var/lib/served.snap -snapshot-every 5m
//	served -evict-idle 1h -evict-every 10m  # retire sessions idle > 1 hour
//	served -debug-addr 127.0.0.1:9633       # /metrics, /varz, /debug/pprof/
//	served -metrics-log-every 1m            # periodic metrics delta log line
//
// The lifecycle is the one fleetd shares (cmd/internal/daemon): served
// adds only its eviction sweep. Running out of file descriptors stalls
// accepts instead of ending the daemon, and an accept loop that fails for
// good still flushes -snapshot before exiting.
//
// The protocol is unauthenticated and unencrypted (plain TCP):
// run served only on networks where every peer is trusted, exactly like
// shardd.
package main

import (
	"flag"
	"fmt"
	"net"

	"smartexp3/cmd/internal/daemon"
	"smartexp3/internal/serve"
)

func main() { daemon.Main("served", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:9632", "address to accept client connections on")
		evict    = fs.Duration("evict-idle", 0, "retire device sessions idle longer than this (0 disables; evicted devices re-join from their seed)")
		sweepEvy = fs.Duration("evict-every", 0, "idle-eviction sweep interval (default evict-idle/4, requires -evict-idle)")
		flags    = daemon.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweepEvy > 0 && *evict <= 0 {
		return fmt.Errorf("-evict-every requires -evict-idle")
	}
	if *evict > 0 && *sweepEvy <= 0 {
		if *sweepEvy = *evict / 4; *sweepEvy <= 0 {
			*sweepEvy = *evict
		}
	}
	d, err := flags.Open(serve.Config{EvictAfter: *evict})
	if err != nil {
		return err
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
	d.Logf("serving %v on %s", d.Store.Config().Algorithm, ln.Addr())
	// The sweep runs between checkpoints and stops before the final flush,
	// so the flush sees a store no sweep is mutating.
	return d.Serve(ln, daemon.Chore{Every: *sweepEvy, Run: func() {
		if n := d.Store.EvictIdle(); n > 0 {
			d.Logf("evicted %d device sessions idle longer than %v", n, *evict)
		}
	}})
}
