// Command shardd is the replication-shard worker daemon of the cluster
// layer: it listens for coordinator sessions (cmd/simulate -shards,
// cmd/reproduce -cluster, or internal/cluster.Session directly) and
// executes the seed ranges the coordinator assigns, streaming per-run
// results back. Every range carries its job's seeding and config; shardd
// compiles a config into a sim.Engine the first time a session sends it
// and keeps the session's most recently used engines warm, so pipelined
// jobs of the same config share one compile. A session stays connected
// across any number of jobs, answering keepalive pings while idle, so a
// suite of many small batches pays the dial and handshake once.
//
// A shardd holds no batch state of its own: seeds derive deterministically
// from a range's seeding and the global run index, so any worker (or the
// coordinator itself) can re-run a range that a killed worker never
// finished, with bit-identical results.
//
// Usage:
//
//	shardd                         # listen on 127.0.0.1:9631
//	shardd -listen 0.0.0.0:9631    # accept coordinators from the network
//	shardd -workers 8              # bound per-connection parallelism
//	shardd -debug-addr :9634       # /metrics, /varz, /debug/pprof/
//
// With -debug-addr set, the worker serves its instrumentation (sessions,
// engine compiles, ranges, runs, wire frames and bytes, per-range latency, pool
// utilization) on a second HTTP listener; -metrics-log-every instead (or
// additionally) logs a structured delta line at that interval. Metrics are
// observation-only: results are bit-identical with or without them. shardd
// shares this wiring, and its accept retry, with served and fleetd.
//
// The protocol is unauthenticated and unencrypted (fixed-layout messages
// in internal/frame's checksummed frames over TCP):
// run shardd only on networks where every peer is trusted, exactly like a
// memcached or a work-queue worker.
package main

import (
	"flag"
	"log"
	"net"
	"os"

	"smartexp3/cmd/internal/daemon"
	"smartexp3/internal/cluster"
	"smartexp3/internal/runner"
)

func main() { daemon.Main("shardd", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("shardd", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:9631", "address to accept coordinator connections on")
		workers = fs.Int("workers", 0, "parallelism per coordinator connection (default: GOMAXPROCS)")
		obs     = daemon.RegisterObs(fs)
		quiet   = fs.Bool("quiet", false, "suppress per-connection and per-range log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "shardd: ", log.LstdFlags)
	opts := cluster.WorkerOptions{Workers: *workers}
	if !*quiet {
		opts.Logf = logger.Printf
	}
	reg := obs.Registry()
	if reg != nil {
		runner.Instrument(reg)
		opts.Metrics = cluster.NewWorkerMetrics(reg)
	}
	closeDebug, err := obs.ServeDebug(reg, logger.Printf)
	if err != nil {
		return err
	}
	defer closeDebug()
	obs.LogDeltas(reg, nil)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	logger.Printf("listening on %s", ln.Addr())
	return cluster.Serve(ln, opts)
}
