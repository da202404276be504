// Command shardd is the replication-shard worker daemon of the cluster
// layer: it listens for coordinator sessions (cmd/simulate -shards,
// cmd/reproduce -cluster, or internal/cluster.Session directly), compiles
// each session's job descriptors into sim.Engines — once per distinct
// config, shared across the session's pipelined jobs — and executes the
// seed ranges the coordinator assigns, streaming per-run results back. A
// session stays connected across any number of jobs, answering keepalive
// pings while idle, so a suite of many small batches pays the dial and
// handshake once.
//
// A shardd holds no batch state of its own: seeds derive deterministically
// from the job descriptor and the global run index, so any worker (or the
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
// jobs, ranges, runs, wire frames and bytes, per-range latency, pool
// utilization) on a second HTTP listener; -metrics-log-every instead (or
// additionally) logs a structured delta line at that interval. Metrics are
// observation-only: results are bit-identical with or without them.
//
// The protocol is unauthenticated and unencrypted (stdlib gob in
// internal/frame's checksummed frames over TCP):
// run shardd only on networks where every peer is trusted, exactly like a
// memcached or a work-queue worker.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"

	"smartexp3/internal/cluster"
	"smartexp3/internal/obsv"
	"smartexp3/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shardd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shardd", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:9631", "address to accept coordinator connections on")
		workers  = fs.Int("workers", 0, "parallelism per coordinator connection (default: GOMAXPROCS)")
		debug    = fs.String("debug-addr", "", "serve /metrics, /varz and /debug/pprof/ on this address (empty disables)")
		logEvery = fs.Duration("metrics-log-every", 0, "emit a structured metrics-delta log line at this interval (0 disables)")
		quiet    = fs.Bool("quiet", false, "suppress per-connection log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "shardd: ", log.LstdFlags)
	opts := cluster.WorkerOptions{Workers: *workers}
	if !*quiet {
		opts.Logf = logger.Printf
	}
	if *debug != "" || *logEvery > 0 {
		reg := obsv.NewRegistry()
		runner.Instrument(reg)
		opts.Metrics = cluster.NewWorkerMetrics(reg)
		if *debug != "" {
			ds, err := obsv.ListenAndServe(*debug, reg)
			if err != nil {
				return err
			}
			defer ds.Close()
			logger.Printf("debug endpoints on http://%s/ (/metrics, /varz, /debug/pprof/)", ds.Addr())
		}
		if *logEvery > 0 {
			dl := obsv.NewDeltaLogger(reg, slog.New(slog.NewTextHandler(os.Stderr, nil)))
			go dl.Run(*logEvery, nil)
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	logger.Printf("listening on %s", ln.Addr())
	return cluster.Serve(ln, opts)
}
