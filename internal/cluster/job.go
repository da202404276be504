// Package cluster shards Monte Carlo replication batches across processes
// and machines while preserving the runner's determinism contract: for a
// fixed root seed, the merged aggregate is byte-identical whether a batch
// runs in-process, on one shard, or on many — and whether or not a worker
// dies mid-batch.
//
// # Roles
//
// A worker (Serve, wrapped by cmd/shardd) is a daemon holding, per
// coordinator connection, a small cache of compiled sim.Engines + pooled
// Workspaces keyed by the config bytes they were compiled from. Every seed
// range it receives carries its job's id, seeding and config, so the
// worker holds no job state: it looks the range's engine up by those
// bytes, compiling only on a miss, and streams per-run results back. The
// coordinator side is the Session: it dials each worker once, keeps the
// connection alive across batches (keepalive pings under the
// frame-timeout discipline), multiplexes pipelined jobs over it,
// partitions each job's global run index space into contiguous ranges,
// reassigns ranges whose connection failed before delivering them
// (reconnecting to the worker where possible), and folds every result
// through a per-job single-goroutine ordered merge in ascending global run
// order. A caller with a single batch opens a session, runs it and closes
// it; a session with no workers runs its jobs in-process.
//
// # Determinism contract
//
// Three properties make shard count (and worker failure) unobservable in
// the output:
//
//   - Seeds are a pure function of (base seed, stream ids, global run
//     index) via rngutil.ChildSeed — identical on every worker and in
//     process, regardless of which shard executes the run.
//   - sim.Engine.Run(ws, seed) is a pure function of (engine, seed), so
//     re-running a reassigned range on another worker reproduces the same
//     bits the dead worker would have produced.
//   - The coordinator merges each job strictly in ascending global run
//     order from a single goroutine, exactly like runner.MergeOrdered, so
//     non-commutative folds see runs in the serial order.
//
// Because every property is per job, pipelining changes nothing: jobs
// multiplexed over one session merge independently, and a mid-session
// reconnect (the worker died between or during jobs) only re-executes
// undelivered ranges — the same bits, wherever they run.
//
// # Transport
//
// The wire protocol is deliberately boring: fixed-layout messages (a tag
// byte, varint and IEEE-754-bit fields, length-prefixed lists; see wire.go
// and codec.go) in the checksummed frames of internal/frame over stdlib
// TCP, opened by the frame layer's shared hello. Five messages make up the
// protocol: Range, RunResult, RangeDone, Ping and Pong. A range crosses
// with its job's seeding parameters and its sim.Config, less the five
// fields Shardable names (the two delay samplers, the PolicyFactory, Core
// and Seed); the coordinator encodes a job's config once and every range
// of the job carries those bytes. A result crosses as every sim.Result
// field, each float as its exact bits. Every message is encoded into
// retained per-connection scratch and decoded without reflection; the
// only per-message allocations are the results the coordinator keeps,
// and a worker decodes a config only when it compiles one.
// There is no discovery and no TLS — shardd is meant to run inside a
// trusted cluster network behind the operator's own orchestration, and a
// dead or unreachable worker is handled by the two mechanisms that matter
// for correctness: range reassignment and bounded reconnects.
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// Shardable reports whether cfg can run on a cluster: NewJob accepts cfg
// exactly when it returns nil. The wire carries every sim.Config field
// except five:
//
//   - WiFiDelay, CellularDelay and PolicyFactory are interfaces and
//     functions, which cannot cross the wire; Shardable refuses them when
//     set, and such configs run in-process (sim.Replicate).
//   - Core is refused when Core.Gamma is set. Otherwise sim's defaulting
//     replaces the whole Core with core.DefaultConfig, in every process
//     alike.
//   - Seed is ignored by sim.NewEngine; the batch seed travels in
//     JobSpec.Seed.
func Shardable(cfg sim.Config) error {
	if cfg.WiFiDelay != nil || cfg.CellularDelay != nil {
		return errors.New("cluster: custom delay samplers cannot be serialized; workers apply the internal/dist defaults")
	}
	if cfg.Core.Gamma != nil {
		return errors.New("cluster: a custom core.Config cannot be serialized; workers apply core.DefaultConfig")
	}
	if cfg.PolicyFactory != nil {
		return errors.New("cluster: a PolicyFactory is process-local and cannot be serialized")
	}
	// The codec decodes an empty list as nil (a zero count carries no
	// capacity), so a worker would see nil and sim's defaulting would
	// diverge from the in-process run (an explicitly empty DeviceGroups
	// means "no groups", nil means "one group of everyone"). Refuse the
	// ambiguous forms rather than silently changing the configuration in
	// flight.
	if cfg.DeviceGroups != nil && len(cfg.DeviceGroups) == 0 {
		return errors.New("cluster: empty non-nil DeviceGroups does not survive serialization; use nil for the default grouping or list explicit groups")
	}
	if cfg.NetworkCosts != nil && len(cfg.NetworkCosts) == 0 {
		return errors.New("cluster: empty non-nil NetworkCosts does not survive serialization; use nil for per-technology defaults")
	}
	return nil
}

// JobSpec is the complete description of one replication batch: a
// shardable config plus the runner.Replications seeding parameters. Any
// process holding a JobSpec derives exactly the same per-run seeds and
// compiles the same engine.
type JobSpec struct {
	// Config is the batch's scenario. It crosses the wire without the
	// fields Shardable names; a worker's decoded config holds them zero.
	Config sim.Config
	// Runs is the total number of replications across all shards.
	Runs int
	// Seed is the batch's base seed; per-run seeds derive from it exactly
	// as runner.Replications.SeedFor does.
	Seed int64
	// Stream namespaces the batch (see runner.Replications.Stream).
	Stream []int64
}

// NewJob builds the descriptor for running batch over cfg on a cluster.
// It fails when cfg is not shardable (see Shardable).
func NewJob(batch runner.Replications, cfg sim.Config) (JobSpec, error) {
	if err := Shardable(cfg); err != nil {
		return JobSpec{}, err
	}
	if batch.Runs < 0 {
		return JobSpec{}, fmt.Errorf("cluster: negative run count %d", batch.Runs)
	}
	return JobSpec{Config: cfg, Runs: batch.Runs, Seed: batch.Seed, Stream: batch.Stream}, nil
}

// batch reconstructs the runner batch the job describes. Workers is left to
// the executing side: parallelism is a local choice, seeds are not.
func (j JobSpec) batch() runner.Replications {
	return runner.Replications{Runs: j.Runs, Seed: j.Seed, Stream: j.Stream}
}

// ParseShards parses a comma-separated shardd address list (the CLIs'
// -shards / -cluster flag value): whitespace is trimmed, empty entries are
// dropped, and an empty or all-empty value yields nil (meaning in-process).
func ParseShards(flagValue string) []string {
	var out []string
	for _, addr := range strings.Split(flagValue, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			out = append(out, addr)
		}
	}
	return out
}
