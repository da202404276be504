// Command bench is the repository's benchmark: four seeded workloads that
// measure the decision path (caller → serve.Client → frame codec → TCP →
// serve.Server → serve.Store → Smart EXP3) and the simulation path
// (sim.Engine → runner.MergePooled → cluster.Session), end to end and per
// layer. Every performance claim names one of its workloads and metrics.
//
// The harness is its own module (go.mod here) that builds against the
// repository's packages through a replace directive. Run it from the
// repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1                  # all four workloads, bare
//	bash bench/run.sh -seed 1 -trace 1         # per-layer metrics and spans
//	bash bench/run.sh -seed 1 -repeat 5        # spread over five rounds
//	(cd bench && go test .)                    # unit and smoke tests, ~25 s
//	(cd bench && go vet . && gofmt -l .)
//	go run ./cmd/repolint -C bench ./...
//
// The root module's go test ./... and go vet ./... do not enter this
// module; run the last three lines for it.
//
// run.sh keeps the Go build cache and the binary in .bench_build/ at the
// root. Flags: -workload (a comma list; default all four), -seed, -seconds
// (the measured window, default 20), -trace 0|1, -spans DIR (where traced
// runs write their span files, default .bench_build) and -repeat R.
//
// Every run prints each metric as "name value unit", then one JSON line:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A bare run's metrics are the end-to-end ones, a traced run's the
// per-layer ones. The command exits nonzero when any check fails.
//
// # Workloads
//
// One process, in-process daemons on real loopback TCP, one client
// connection per serve workload, at most two busy goroutines. Each workload
// runs set-up (seven times; setup_s is the median and the last set-up is
// kept), an unmeasured 2 s warm-up, then the measured window. Request
// streams come from rngutil.ChildSeed(seed, workload, stream); the store
// and engine configurations are constants.
//
//	workload     loop                              why
//	serve-hot    closed, one connection; 64        The store is ~1% of a wire decision,
//	             devices warmed with 300           so this isolates the client, the frame
//	             decisions each; arms {0,1,2,3};   codec and the server loop. A store-only
//	             an op is a Select and its         change must show no change here.
//	             Feedback
//	serve-churn  closed, one connection; 8,192     Puts the work in the store: joins,
//	             devices joined in set-up; each    SetAvailable on arm-set changes,
//	             decision picks a device and one   settling abandoned slots, a working
//	             of four arm sets (3-8 arms); 2%   set (~66 MB) beyond the caches, and
//	             skip Feedback, 1% are followed    snapshots that take shard locks and a
//	             by Release; the store is          core from the request path.
//	             snapshotted and encoded at 1/4
//	             and 3/4 of the window
//	sim-large    back-to-back batches of 16        Engine.Run is nearly all the time.
//	             replications of 500 devices x     Workspace, core and game changes show
//	             200 slots on netmodel.Large(),    here; wire and cluster changes must
//	             runner.MergePooled, 2 workers,    not.
//	             engine compiled in set-up
//	sim-batches  back-to-back batches of 8         Job encode, range dispatch, the gob
//	             replications of the 5-device,     result stream and the ordered merge
//	             120-slot Setting 1 run through    are a large share of a batch. Cluster
//	             one cluster.Session to an         and runner changes show here and not
//	             in-process cluster.Serve worker,  on sim-large.
//	             warmed by 8 batches in set-up
//
// Both serve workloads are closed loops. serve-churn first offered a fixed
// 12,000 decisions/s, an open loop whose generator spun between requests,
// and its ratio (below) followed the host rather than the store: with the
// process stopped for 8 ms of every 30 ms, or with other processes busy on
// both vCPUs, it read 2.30-2.80 where the closed loop read 2.56-2.64, and
// between two sets of ten runs its quartile spread went from 3% to 20%.
// Its population is 8,192 devices: a device holds ~8 KB of state, so
// 32,768 devices made a 263 MB store and, with a snapshot alive, an 860 MB
// live heap.
//
// The fleet is left out: its hot-path cost is one atomic load, invisible
// beside a ~20 µs round trip. Also left out: CI wiring, rows at
// GOMAXPROCS=1, and spans inside the program (spans here are recorded
// around the benchmark's own calls into each layer). BENCH_runner.json
// stays the CI allocation gate.
//
// # The reference op
//
// The machine the bounds were set on (two vCPUs shared with other tenants)
// changes speed by 10-30% over minutes. In ten separate runs of one
// workload the raw median latency spread 6-28% between the first and third
// quartile, so no raw timing could hold a 10% regression bound. Every
// window therefore also times a reference op, a fixed piece of work with
// none of the repository's code on its path, interleaved with the
// workload's ops: on the serve workloads a 32-byte loopback TCP echo after
// every 8th decision; on sim-large a compute kernel (xorshift updates of a
// 256 KB table) on both workers' goroutines after every batch; on
// sim-batches, after every 8th batch, the kernel on one goroutine followed
// by 32 echoes, as a batch there is mostly hand-offs between goroutines
// over loopback, which a slowed host stretches more than compute. The
// machine's drift moves op and reference alike; a change to the
// repository's code moves only the op. The reference ops take a few percent
// of each window, and the raw timings are printed beside the ratio.
//
// The window is cut into ten slices and latency_p50_rel is the median of
// the slices' ratios of op median to reference median. Pairing op and
// reference within a slice cancels drift across the window; the median over
// slices lets a few slices that other tenants' bursts disturbed (they slow
// a sim-batches op by up to 60% when the reference slows 30%) not move it.
//
// Set-up is rescaled the same way: setup_s is each set-up's time multiplied
// by the reference's nominal duration over its mean duration around that
// set-up (echoes interleaved with a serve set-up's decisions, reference ops
// before and after a sim set-up), i.e. the set-up time at the speed the
// nominal durations were recorded at (ref.go).
//
// The spreads each set of ten separate runs showed are in baseline.json.
// Other references did not do better on sim-large: larger kernel tables, an
// EXP3-style loop over per-device lagged-Fibonacci state like the engine's,
// a kernel run after each replication on the same worker, and blends of
// these all spread 4-14%. Memory-bound code slows more than cache-resident
// code when neighbours contend for shared caches, and the engine's
// sensitivity lies between any two fixed kernels'. In sixteen 10 s
// sim-large runs on a host whose raw medians spread 9% between quartiles,
// the ratio still spread 8%.
// latency_p50_rel's bound is therefore 20%, not the 10% the serve
// workloads alone would allow: at least twice any quartile spread seen, so
// that two sets of runs of the same code stay within it.
//
// # Checks
//
// Serve workloads hash each Select answer (arm and slot) into blocks of 256
// and, after the window, replay the whole history — set-up, warm-up and
// window, with every Feedback, abandoned slot and Release — from one
// goroutine into a fresh serve.Store with the same Config. Every block must
// match; the ops of a mismatched block count as failed. The seven set-ups
// must answer identically too. sim-large compares its first batch with
// sim.Replicate on one worker, and sim-batches its first three batches with
// sim.Replicate, bitwise on ΣDownloadMb and ΣSwitches. A window with fewer
// latency samples than its workload needs (1,000, so a p99 has ten beyond
// it; sim-large: 200, as a 20 s window holds about a thousand replications)
// fails the run, and so does a window in which no reference op was timed.
//
// # End-to-end metrics
//
// Measured in bare runs: no spans, no pings and no obsv registries.
//
//	metric             unit   bound  meaning
//	latency_p50_rel    ratio  20%    median op latency over the median
//	                                 reference op, the median over the
//	                                 window's ten slices (see above)
//	setup_s            s      25%    median of seven set-ups, each rescaled
//	                                 to the reference's nominal speed: time
//	                                 from workload start to the first
//	                                 measured-phase op, i.e. building store,
//	                                 engine or session, dialing, set-up joins
//	                                 and workspace warm runs
//	heap_live_peak_mb  MB     5%     largest live heap (runtime/metrics)
//	                                 after a forced GC at the window's
//	                                 checkpoints: its end, and on serve-churn
//	                                 after each snapshot is encoded while it
//	                                 is still referenced
//
// The op a latency sample times: serve-hot, a Select and its Feedback from
// the call; serve-churn, the same plus any Release; sim-large, one
// replication from its batch's start to its merge; sim-batches, one batch
// through Session.Run. Every loop is closed, so throughput follows latency;
// it is printed raw (decisions_per_s, with latency_p50_us and ref_p50_us)
// but bounded only through the ratio. Ops that failed, were refused or
// answered wrongly are printed as failed_share and carried in the JSON
// line's "failed"; it is 0 on every workload, so it cannot be a metric with
// a relative bound.
//
// setup_s has the widest bound the benchmark allows: its set-ups take 10 to
// 500 ms, and even their median of seven, rescaled, spread up to 12%
// across runs (the raw wall time, printed as setup_wall_s, up to 37%). Its
// bound limits how far its median may move; its spread is not checked.
//
// # Per-layer metrics
//
// A traced run (-trace 1) splits each window into two halves: a bare run,
// then one with spans, pings and obsv registries attached. It prints the
// bare half's end-to-end metrics as text, and reports the per-layer ones.
// Those come from the traced half, except loadgen.*, proc.* and bare.*,
// which describe the load and the process and come from the bare half. A
// layer a workload does not exercise reads 0. The right column names the
// end-to-end metric and workload each should move.
//
//	metric                                 unit   moves
//	serve.client.select_us.p50/.p99        us     latency_p50_rel, serve-hot
//	serve.client.feedback_us.p50/.p99      us     latency_p50_rel, serve-hot
//	serve.client.ping_us.p50               us     latency_p50_rel, serve-hot; a Ping
//	                                              after every 1,000th op, outside
//	                                              its timing, is a round trip with
//	                                              no store work, so select minus
//	                                              ping is store + payload
//	serve.client.release_us.p50            us     loadgen.decide_p99_us, serve-churn
//	serve.client.reconnects                count  failed (serve.NewClientMetrics)
//	serve.client.feedback_dropped          count  failed
//	serve.server.frames_per_decision       count  latency_p50_rel, serve-hot
//	serve.server.bytes_per_decision        B      latency_p50_rel, serve-hot
//	serve.store.direct_ns_per_decision     ns     latency_p50_rel and setup_s on
//	                                              serve-churn; nothing on
//	                                              serve-hot. The replay's wall time
//	                                              (including regenerating each
//	                                              request) over its Selects
//	serve.store.join_us                    us     same; mean replayed Select for a
//	                                              device the store did not hold
//	serve.store.select_ns.p50/.p99         ns     in-situ store time, from the
//	                                              sampled Store.Instrument histogram
//	serve.store.snapshot_ms, encode_ms,    ms, B  loadgen.decide_p99_us and
//	serve.store.snapshot_bytes_per_device         heap_live_peak_mb, serve-churn
//	serve.store.dropped_share              ratio  abandoned selections over Selects:
//	                                              the share of work wasted
//	serve.store.devices                    count  devices held at the end
//	sim.run_ms.p50/.p99                    ms     latency_p50_rel, sim-large
//	sim.allocs_per_run, sim.bytes_per_run  count  latency_p50_rel, sim-large
//	sim.compile_ms                         ms     setup_s
//	runner.busy_share                      ratio  Engine.Run time over workers x
//	                                              batch wall time; sim-large
//	runner.merge_wait_us.p50/.p99          us     a run's return to its merge
//	                                              callback; sim-large
//	cluster.session_run_ms.p50/.p99        ms     latency_p50_rel, sim-batches
//	cluster.overhead_ms.p50                ms     latency_p50_rel on sim-batches and
//	                                              nothing on sim-large: Session.Run
//	                                              minus an in-process MergePooled
//	                                              of the same seeds, 200 alternated
//	                                              pairs after the window
//	cluster.bytes_per_batch,               B,     latency_p50_rel, sim-batches
//	cluster.frames_per_batch,              count  (cluster.NewSessionMetrics)
//	cluster.reconnects, cluster.reassigned count  failed
//	proc.cpu_us_per_op                     us     getrusage user+sys over decisions;
//	                                              latency_p50_rel on serve-hot
//	proc.gc_cycles, proc.gc_pause_ms,      count, loadgen.decide_p99_us, churn
//	proc.alloc_bytes_per_op                ms, B
//	loadgen.decide_p99_us                  us     p99 of the op latency over the
//	                                              whole window; on serve-churn it
//	                                              holds the snapshot stalls
//	loadgen.decide_p999_us                 us     p999 of the same
//	bare.latency_p50_us                    us     the ratio's numerator, raw
//	bare.decisions_per_s                   1/s    ops completed per second, window
//	                                              start to last completion
//	bare.ref_p50_us                        us     the ratio's denominator, raw
//	trace.latency_ratio                    ratio  traced over bare latency_p50_rel:
//	trace.rate_ratio                       ratio  the tracing overhead, and traced
//	                                              over bare decisions_per_s
//	trace.spans_dropped                    count  spans not in the span file
//
// The latency tail is per-layer: in ten runs serve-hot's p99 varied 20%,
// and serve-churn's depends on how many ops the snapshots stall, beyond any
// bound that would still catch a regression. The traced
// run also prints one line per span name with its call count, total time
// and self time.
//
// # Spans
//
// A traced run records a span around every call the benchmark makes into
// a layer: op (one decision), serve.client.select/feedback/release/ping,
// snapshot with its serve.store.snapshot and serve.store.encode children,
// serve.store.replay, runner.merge_pooled with its sim.engine.run and
// runner.merge children, and cluster.session.run. Self times are computed
// as spans end, over every span of the traced half: a span's self time is
// its duration minus the union of its children's intervals. The span file
// holds up to 65,536 spans allocated before the run; when it fills, it
// keeps only the requests whose index is a multiple of twice the previous
// stride, so it samples whole requests evenly across the window. When the
// run ends it is written to DIR/spans-<workload>.jsonl, one JSON object a
// line:
//
//	{"name":"serve.client.select","id":2,"parent":1,"req":0,"start_ns":1234,"end_ns":5678}
//
// id is unique in the run, parent is the causing span (0 for a root), req
// is the op or batch index (0 for snapshots and the replay), and times are
// nanoseconds since the traced half started.
//
// # Repeat
//
// -repeat R runs R rounds; each runs every selected workload once bare with
// seed+round, each run in its own process (this executable, with the flags
// above), so the rounds spread as separate invocations do. It prints per
// workload and end-to-end metric the median, the quartiles (as Python's
// statistics.quantiles(xs, n=4)), (q3-q1)/median and (max-min)/median, and
// exits nonzero when a quartile spread exceeds the metric's bound in
// ./BENCHMARK.json (setup_s excepted). Its last line adds the environment:
// nproc, GOMAXPROCS, CPU model and Go version.
//
// baseline.json is the first recording, with its environment: two sets of
// ten separate-process runs per workload, the workloads interleaved (seeds
// 100-109 and 200-209; the spreads the bounds come from, and how far each
// median moved between the sets), two -repeat 5 -seed 1 sets and one
// -trace 1 run.
package main
