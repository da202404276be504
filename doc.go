// Package smartexp3 is a from-scratch Go implementation of Smart EXP3, the
// bandit-style decentralized wireless network selection algorithm of
// "Shrewd Selection Speeds Surfing: Use Smart EXP3!" (Appavoo, Gilbert, Tan;
// ICDCS 2018), together with every baseline and evaluation substrate the
// paper depends on.
//
// # What is here
//
//   - The Smart EXP3 policy and its ablation family (EXP3, Block EXP3,
//     Hybrid Block EXP3, Smart EXP3 w/o Reset) plus the Greedy, Full
//     Information, Fixed Random and Centralized baselines.
//   - A slotted-time multi-device wireless simulation engine with service
//     areas, mobility, device churn, switching-delay models (Johnson S_U /
//     Student's t) and congestion-game metrics (Nash equilibria, distance to
//     NE, stability, fairness).
//   - A trace-driven simulator with a synthetic WiFi/cellular trace
//     generator, a real-TCP controlled testbed, and an in-the-wild download
//     emulation.
//   - One runnable experiment per table and figure of the paper's
//     evaluation (run `reproduce -list` under cmd/reproduce for the
//     catalog), executed over a deterministic parallel Monte Carlo
//     runner (internal/runner).
//
// # Quick start
//
// Select among three networks with Smart EXP3, observing gains in [0,1]:
//
//	rng := smartexp3.NewRNG(1)
//	policy, err := smartexp3.NewPolicy(smartexp3.AlgSmartEXP3, []int{0, 1, 2}, rng)
//	if err != nil { ... }
//	for t := 0; t < horizon; t++ {
//		network := policy.Select()
//		gain := observeBitRate(network) / maxBitRate
//		policy.Observe(gain)
//	}
//
// Or simulate a whole population:
//
//	res, err := smartexp3.Simulate(smartexp3.SimConfig{
//		Topology: smartexp3.Setting1(),
//		Devices:  smartexp3.UniformDevices(20, smartexp3.AlgSmartEXP3),
//		Slots:    1200,
//		Seed:     1,
//	})
//
// For Monte Carlo batches, compile the configuration once and run many
// seeded replications against it — the engine is immutable and shared, each
// worker reuses one workspace, and warm replications allocate nothing
// beyond their results:
//
//	eng, err := smartexp3.NewSimEngine(cfg)
//	if err != nil { ... }
//	ws := eng.NewWorkspace()
//	for run := 0; run < runs; run++ {
//		res, err := eng.Run(ws, seeds[run])
//		...
//	}
//
// Large generated topologies (hundreds of networks across tens of service
// areas) come from GenerateTopology / LargeTopology with SpreadDevices;
// ExampleNewSimEngine runs one through a reused workspace.
//
// # Architecture
//
// The execution stack is six layers, each adding one scaling axis on top
// of the one below while preserving a single determinism contract:
//
//   - Engine (internal/sim): the compiled, immutable form of a simulation
//     configuration — validated, defaulted, deep-copied, with cost tables
//     and the epoch schedule precomputed. Engines are shared read-only
//     across any number of goroutines.
//   - Workspace (internal/sim): every piece of state one replication
//     mutates, reset and reused run after run. Warm replications allocate
//     exactly the Result they return: policies reinitialize in place, RNG
//     streams reseed in place in O(1), each computing its first 333 draws
//     from its seed and filling its ring, reserved with the workspace, at
//     its 334th (internal/rngutil), the Nash-equilibrium
//     cache re-solves into pooled buffers (game.PrepareInto).
//   - Runner (internal/runner): fans seeded replications across a bounded
//     goroutine pool — one workspace per worker — and merges results in
//     ascending run order from a single goroutine, so aggregates are
//     bit-identical for every worker count.
//   - Cluster (internal/cluster, cmd/shardd): shards a batch's run-index
//     space across processes and machines over fixed-layout messages in
//     the shared frame layer (see below). The coordinator
//     side is a persistent Session: each worker is dialed once, the stream
//     stays alive across batches (keepalive pings under the frame-timeout
//     discipline, with deadlines cleared while nothing is owed), and any
//     number of jobs multiplex over it — many small batches pipeline
//     without a dial or handshake between them. Each range is
//     self-describing: it carries its session-unique job id, the job's
//     seeding and the job's config bytes, encoded once per job, so a
//     worker holds no job state, only a small per-connection cache of
//     compiled engines keyed by those bytes;
//     the coordinator reassigns the ranges of failed connections
//     (reconnecting where possible) and merges each job through the same
//     single-goroutine ordered merge.
//   - Serve (internal/serve, cmd/served): the online decision service —
//     the same policies answering live Select/Feedback traffic instead of
//     simulated slots. Where the Engine/Workspace split separates compiled
//     configuration from one replication's mutable state, the serve layer
//     separates it from per-device policy state: a sharded device store
//     (GOMAXPROCS-scaled shards, one mutex each) holds one Smart EXP3
//     instance plus one seeded RNG stream per device, both inline in one
//     record with the policy's per-arm state, pooled and rebuilt in place
//     so device churn is allocation-free warm.
//     Requests travel as fixed-layout binary payloads (a tag byte, then
//     varints, length-prefixed strings and lists, reward bits) inside the
//     shared frame layer's checksummed frames, with batched
//     fire-and-forget feedback sent in the same write as the next
//     request; warm, a decision round trip allocates nothing on either
//     side. The store is a pure function of (algorithm, config, seed)
//     and the request history: devices draw from independent
//     rngutil.ChildSeed streams, snapshots serialize devices in sorted id
//     order with exact policy and RNG-cursor state, and a
//     snapshot/restart/replay is byte-identical to an uninterrupted run —
//     the daemon checkpoints on SIGTERM (and optionally on a timer) and
//     resumes mid-stream without losing learned weights. The layer is
//     self-healing end to end: selections carry slot ids so the store
//     deduplicates replayed requests, the client redials with capped
//     exponential backoff and resends unconfirmed feedback (transparent to
//     callers; a daemon gone for good surfaces as an error), and the
//     daemon evicts idle device sessions on a TTL without bending
//     determinism — an evicted device re-joins from its per-device seed.
//     internal/chaos pins all of it: a deterministic, seeded
//     fault-injection net.Conn wrapper and in-process TCP proxy (latency,
//     bit flips, mid-frame cuts, stalls at replayable byte offsets) under
//     which a serve session must be decision- and state-identical to a
//     clean one.
//   - Fleet (internal/fleet, cmd/fleetd): scales the decision service past
//     one process by partitioning the device-id space across served-style
//     peers under a versioned partition table — rendezvous hashing assigns
//     each of 2^k key-space stripes to a peer, and every change is a new
//     epoch. Peers enforce ownership on the hot path (one atomic view load
//     per request; 0 allocs/op, same CI gate) and answer for foreign
//     devices with a NotOwner redirect carrying the epoch and owner, so
//     stale clients heal themselves: the fleet client routes locally,
//     follows redirects, re-fetches the table, and replays bounced
//     feedback to the new owner, where slot-id dedup makes the replay
//     exactly-once. Rebalancing is a live snapshot handoff driven by a
//     coordinator over a second control listener: quiesce a stripe on the
//     old owner (an ownership flip under the shard locks makes the cut an
//     exact write barrier), ship the per-range snapshot over the framed
//     wire, stage it on the gaining peer, and commit the bumped epoch
//     fleet-wide — in-flight traffic redirects mid-handoff and no decision
//     is lost or doubled. A coordinator that dies mid-handoff leaves
//     nothing stranded: staged state dies with its connection, and an
//     orphaned drain resolves by asking the gaining peer whether the
//     epoch committed. The acceptance property mirrors serve's: a
//     three-peer fleet through a mid-run rebalance and a chaos-killed
//     peer is decision- and merged-snapshot-identical to one
//     uninterrupted store.
//
// The three wires — cluster sessions, serve decisions, fleet control —
// share one transport, internal/frame: frames with a checked 12-byte
// header (payload length, payload CRC-32C and the header's own CRC-32C,
// so corruption anywhere is a connection error at once, never a stall or
// a silently different value), one frame.Conn type that owns the
// buffering, the frame counters and the per-frame deadlines (armed
// lazily: no frame times out sooner than the timeout or more than 1/16
// later, and a busy connection sets one deadline per direction every
// timeout/16), one timeout rule, and one versioned hello exchange naming
// the protocol, so a client dialing the wrong daemon is refused by name.
// Each protocol brings only its message set. Cluster (v6, five
// messages), serve (v5) and fleet (v4) encode theirs as fixed-layout
// payloads on the frame layer's shared field encodings (canonical
// varints, IEEE-754 bits, length-prefixed lists, presence bytes), decoded
// without reflection.
// Snapshots use the same encodings: a v6 snapshot is a header and one
// fixed-layout record per device, which is also the form a captured
// snapshot holds in memory, so checkpoints, restores and fleet migrations
// move records as they are (a fleet migration frame carries one as the
// rest of its payload). A record carries its device's generator in one of
// two forms: a device fewer than 334 draws past its seed carries the seed
// and the draw count, and any other its 607-word ring. No wire carries
// gob, and a connection holds no codec state beyond its buffers.
//
// Every layer is observable through internal/obsv, a stdlib-only metrics
// layer built for the hot paths above: atomic counters and gauges, fixed
// 4KB log-bucketed latency histograms (mergeable, concurrent-writer-safe,
// p50/p99/p999 at scrape time), and a registry that serves Prometheus text
// on /metrics, a JSON snapshot on /varz, and net/http/pprof — all on an
// opt-in debug listener (-debug-addr on served, shardd and simulate), with
// an optional periodic log/slog delta record for log-scraping fleets. The
// contract is zero cost when disabled and observation-only when enabled:
// metrics never feed back into decisions, so instrumented and bare runs of
// the same seed are byte-identical, and recording on the warm
// Select+Feedback path is a few plain increments under an already-held
// shard lock plus a 1-in-64 sampled latency probe — the path measures 0
// allocs/op with instrumentation attached, enforced by the same CI gate
// that guards the engine's allocation budget.
//
// The two contracts above — determinism and zero-allocation hot paths —
// are enforced at the source level by a custom static analyzer suite
// (internal/analysis, run as cmd/repolint in CI): pure-path packages must
// not read clocks, ambient RNG state, or map iteration order; functions
// marked //repolint:allocfree must avoid allocation constructs and each
// marker must be pinned by a testing.AllocsPerRun gate (a reconciliation
// test keeps markers and gates in lockstep); every wire write must arm a
// deadline; and RNG state may only be built from rngutil seeds. Findings
// are suppressed only by //repolint:ignore waivers that carry a written
// reason, and malformed waivers are findings themselves.
//
// The determinism contract ties the layers together: per-run seeds are a
// pure function of (base seed, stream ids, run index) via
// rngutil.ChildSeed; Engine.Run(ws, seed) is a pure function of (engine,
// seed); and each job's results always merge in ascending run order.
// Consequently the same root seed yields byte-identical aggregates in one
// goroutine, across any worker count, across any shard count, and across
// any session shape — whether batches run one per dial or pipelined over a
// warm session, and even when a worker dies mid-batch (or mid-session) and
// its ranges are re-executed elsewhere. Both CLIs expose the cluster layer
// (`simulate -shards`; `reproduce -cluster` holds one session for the
// whole suite, over which -parexp's concurrent experiments take turns);
// CI holds the equality as an invariant. The contract stops at the
// testbed: fig13, fig14, fig15 and tab7 run wall-clock slots over real
// loopback sockets, so their artifacts differ from run to run, while every
// other experiment is byte-identical with -parexp and -cluster on or off.
package smartexp3
