// Command simulate runs one ad-hoc wireless network selection simulation and
// prints a per-device and run-level summary.
//
// Usage:
//
//	simulate -topology setting1 -algorithm smart -devices 20 -slots 1200
//	simulate -topology uniform:5:11 -algorithm greedy
//	simulate -topology foodcourt -algorithm exp3 -seed 7
//	simulate -runs 32 -workers 8              # parallel Monte Carlo replication
//	simulate -runs 96 -shards h1:9631,h2:9631 # shard the batch across workers
//	simulate -runs 24 -seeds 7,8,9            # one aggregate block per seed
//	simulate -config scenario.json            # declarative JSON scenario
//	simulate -writeconfig scenario.json ...   # save the flags as a scenario
//	simulate -runs 96 -debug-addr :9634       # watch /metrics + pprof live
//
// With -runs above 1 the scenario is replicated across the internal/runner
// worker pool: each replication gets its own RNG stream derived from -seed
// and the run index, and results merge in run order, so the printed
// aggregate is a pure function of the seed regardless of -workers.
//
// With -shards the batch is sharded across remote shardd workers
// (cmd/shardd) through internal/cluster: seed ranges are dispatched over
// TCP, a failed worker's unacknowledged ranges are reassigned, and results
// merge in the same global run order — the aggregate lines are
// byte-identical to an in-process run of the same seed, for any shard
// count, even when workers die mid-batch.
//
// With -seeds the whole -runs batch is swept once per listed seed. A
// sharded sweep holds ONE persistent cluster session for all of it: each
// shardd daemon sees exactly one connection carrying every batch, not a
// redial per seed — CI's cluster smoke job asserts that shape from the
// daemon logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smartexp3"
	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/obsv"
	"smartexp3/internal/runner"
	"smartexp3/internal/scenario"
	"smartexp3/internal/sim"
	"smartexp3/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		topoName  = fs.String("topology", "setting1", "setting1 | setting2 | foodcourt | uniform:<k>:<mbps> | large | metro:<areas>:<aps>:<cells>")
		algName   = fs.String("algorithm", "smart", "exp3|block|hybrid|smartnr|smart|greedy|fullinfo|fixed|centralized")
		devices   = fs.Int("devices", 20, "number of devices")
		slots     = fs.Int("slots", 1200, "number of 15 s time slots")
		seed      = fs.Int64("seed", 1, "random seed")
		seedsList = fs.String("seeds", "", "comma-separated seed sweep: run the -runs batch once per seed (overrides -seed)")
		runs      = fs.Int("runs", 1, "Monte Carlo replications of the scenario")
		workers   = fs.Int("workers", 0, "replication worker count (default: GOMAXPROCS)")
		shards    = fs.String("shards", "", "comma-separated shardd addresses to shard replications across")
		confPath  = fs.String("config", "", "run a JSON scenario file instead of the flags")
		writePath = fs.String("writeconfig", "", "write the flag-defined scenario as JSON and exit")
		debug     = fs.String("debug-addr", "", "serve /metrics, /varz and /debug/pprof/ on this address for the duration of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg smartexp3.SimConfig
	if *confPath != "" {
		f, err := os.Open(*confPath)
		if err != nil {
			return err
		}
		sc, err := scenario.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		if cfg, err = sc.ToConfig(); err != nil {
			return err
		}
		fmt.Printf("scenario %q: %s\n", sc.Name, sc.Description)
	} else {
		alg, ok := core.ParseAlgorithm(strings.ToLower(*algName))
		if !ok {
			return fmt.Errorf("unknown algorithm %q", *algName)
		}
		topo, generated, err := parseTopology(*topoName)
		if err != nil {
			return err
		}
		devs := smartexp3.UniformDevices(*devices, alg)
		if generated {
			// Generated metropolitan topologies have many service areas;
			// spread the population over them round-robin.
			devs = smartexp3.SpreadDevices(*devices, alg, len(topo.Areas))
		}
		cfg = smartexp3.SimConfig{
			Topology: topo,
			Devices:  devs,
			Slots:    *slots,
			Seed:     *seed,
		}
	}
	cfg.Collect = smartexp3.CollectOptions{Distance: true, Probabilities: true}

	if *writePath != "" {
		f, err := os.Create(*writePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := scenario.Write(f, scenario.FromConfig("scenario", cfg)); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *writePath)
		return nil
	}

	shardAddrs := cluster.ParseShards(*shards)
	if len(shardAddrs) > 0 {
		// Validate up front: a configuration that cannot cross the wire
		// (custom samplers, or a JSON scenario's explicitly empty groups)
		// should fail here with the reason, not deep inside the dispatch
		// with a per-worker job rejection.
		if err := cluster.Shardable(cfg); err != nil {
			return fmt.Errorf("-shards: this configuration cannot run on a cluster: %v; drop -shards to run it in-process (reproduce -cluster falls back the same way for its PolicyFactory ablation)", err)
		}
	}

	// The debug listener observes the run: pool utilization and (for a
	// sharded batch) session wire counters, with pprof for live profiling.
	// Observation-only — the printed aggregates are identical either way.
	var reg *obsv.Registry
	if *debug != "" {
		reg = obsv.NewRegistry()
		runner.Instrument(reg)
		ds, err := obsv.ListenAndServe(*debug, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "simulate: debug endpoints on http://%s/\n", ds.Addr())
	}

	if *seedsList != "" {
		seeds, err := parseSeeds(*seedsList)
		if err != nil {
			return err
		}
		return runReplicated(cfg, seeds, true, *runs, *workers, shardAddrs, reg)
	}
	if *runs > 1 || len(shardAddrs) > 0 {
		return runReplicated(cfg, []int64{cfg.Seed}, false, *runs, *workers, shardAddrs, reg)
	}

	res, err := smartexp3.Simulate(cfg)
	if err != nil {
		return err
	}

	var switches, downloads, resets []float64
	for d := range res.Devices {
		switches = append(switches, float64(res.Devices[d].Switches))
		resets = append(resets, float64(res.Devices[d].Resets))
		downloads = append(downloads, smartexp3.MbToGB(res.Devices[d].DownloadMb))
	}
	// Count devices per algorithm in order of first appearance, so a mixed
	// scenario prints the same line on every run.
	var algs []string
	counts := make(map[string]int)
	for _, d := range cfg.Devices {
		name := d.Algorithm.String()
		if counts[name] == 0 {
			algs = append(algs, name)
		}
		counts[name]++
	}
	fmt.Printf("algorithms           ")
	for i, name := range algs {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s x%d", name, counts[name])
	}
	fmt.Println()
	fmt.Printf("devices x slots      %d x %d\n", len(cfg.Devices), cfg.Slots)
	fmt.Printf("switches/device      mean %.1f  sd %.1f\n", stats.Mean(switches), stats.StdDev(switches))
	fmt.Printf("resets/device        mean %.1f\n", stats.Mean(resets))
	fmt.Printf("download/device      median %.2f GB  sd %.0f MB\n",
		stats.Median(downloads), stats.StdDev(downloads)*1000)
	fmt.Printf("time at NE           %.1f%%  (within eps=7.5: %.1f%%)\n",
		100*res.FracAtNE, 100*res.FracAtEps)
	fmt.Printf("unused resources     %.2f GB of %.2f GB\n",
		smartexp3.MbToGB(res.UnusedMb), smartexp3.MbToGB(res.TotalMb))
	if res.StabilityValid {
		fmt.Printf("stable (Def. 2)      %v (slot %d, at NE: %v)\n",
			res.Stability.Stable, res.Stability.Slot, res.Stability.AtNash)
	}
	if len(res.Distance) > 0 {
		late := res.Distance[len(res.Distance)*3/4:]
		fmt.Printf("late distance to NE  %.2f%%\n", stats.Mean(late))
	}
	return nil
}

// replicateStats accumulates one replication batch's aggregates; merge is
// called in global run order, so the printed lines are a pure function of
// the seed regardless of execution shape.
type replicateStats struct {
	switches  []float64 // per device, pooled over runs
	downloads []float64 // per run: median over devices (GB)
	fairness  []float64 // per run: stddev over devices (MB)
	atNE      []float64
	atEps     []float64
	stable    int
}

func (a *replicateStats) merge(_ int, res *smartexp3.SimResult) error {
	var dls []float64
	for d := range res.Devices {
		a.switches = append(a.switches, float64(res.Devices[d].Switches))
		dls = append(dls, res.Devices[d].DownloadMb)
	}
	a.downloads = append(a.downloads, smartexp3.MbToGB(stats.Median(dls)))
	a.fairness = append(a.fairness, smartexp3.MbToMB(stats.StdDev(dls)))
	a.atNE = append(a.atNE, res.FracAtNE)
	a.atEps = append(a.atEps, res.FracAtEps)
	if res.StabilityValid && res.Stability.Stable {
		a.stable++
	}
	return nil
}

// print emits the aggregate lines shared by the in-process and sharded
// paths; CI's cluster smoke job diffs exactly these lines between a
// sharded and a single-process run.
func (a *replicateStats) print(cfg smartexp3.SimConfig, runs int) {
	fmt.Printf("devices x slots      %d x %d\n", len(cfg.Devices), cfg.Slots)
	fmt.Printf("switches/device      mean %.1f  sd %.1f\n", stats.Mean(a.switches), stats.StdDev(a.switches))
	fmt.Printf("median download      mean %.2f GB  sd %.2f GB\n", stats.Mean(a.downloads), stats.StdDev(a.downloads))
	fmt.Printf("fairness sd          mean %.0f MB\n", stats.Mean(a.fairness))
	fmt.Printf("time at NE           %.1f%%  (within eps=7.5: %.1f%%)\n",
		100*stats.Mean(a.atNE), 100*stats.Mean(a.atEps))
	fmt.Printf("stable runs          %d/%d\n", a.stable, runs)
}

// parseSeeds decodes the -seeds sweep list.
func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds entry %q: %w", part, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// runReplicated executes the scenario runs times per seed — across the
// in-process worker pool, or across remote shardd workers when shards are
// given — each replication on its own RNG stream, and prints one
// run-order-deterministic aggregate block per seed. Only each block's
// header line mentions the execution shape; every aggregate line below it
// is byte-identical across worker and shard counts. A sharded run rides ONE
// persistent cluster session for every seed, so each shardd daemon sees
// exactly one connection for the whole sweep — no per-seed redial, and a
// worker lost mid-sweep is redialed by the session, not abandoned between
// batches. sweep selects the per-seed header of -seeds over the plain
// single-batch one.
func runReplicated(cfg smartexp3.SimConfig, seeds []int64, sweep bool, runs, workers int, shards []string, reg *obsv.Registry) error {
	var sess *cluster.Session
	if len(shards) > 0 {
		opts := cluster.Options{
			LocalWorkers: workers,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "simulate: "+format+"\n", args...)
			},
		}
		if reg != nil {
			opts.Metrics = cluster.NewSessionMetrics(reg)
		}
		sess = cluster.NewSession(shards, opts)
		defer sess.Close()
	}
	for _, seed := range seeds {
		cfg.Seed = seed
		agg := &replicateStats{}
		batch := runner.Replications{Runs: runs, Workers: workers, Seed: seed}
		var shape string
		if sess != nil {
			job, err := cluster.NewJob(batch, cfg)
			if err != nil {
				return err
			}
			if err := sess.Run(job, agg.merge); err != nil {
				return err
			}
			shape = fmt.Sprintf("shards %d", len(shards))
		} else {
			if err := sim.Replicate(batch, cfg, agg.merge); err != nil {
				return err
			}
			shape = fmt.Sprintf("workers %d", runner.Workers(workers))
		}
		if sweep {
			fmt.Printf("seed %d: replications %d (%s)\n", seed, runs, shape)
		} else {
			fmt.Printf("replications         %d (%s)\n", runs, shape)
		}
		agg.print(cfg, runs)
	}
	return nil
}

// parseTopology resolves a -topology argument. The second return value
// reports whether the topology is a generated multi-area one (the caller
// then spreads devices over its areas).
func parseTopology(name string) (smartexp3.Topology, bool, error) {
	switch strings.ToLower(name) {
	case "setting1":
		return smartexp3.Setting1(), false, nil
	case "setting2":
		return smartexp3.Setting2(), false, nil
	case "foodcourt":
		return smartexp3.FoodCourt(), false, nil
	case "large":
		return smartexp3.LargeTopology(), true, nil
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(name), "uniform:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 2 {
			return smartexp3.Topology{}, false, fmt.Errorf("topology %q: want uniform:<k>:<mbps>", name)
		}
		k, err := strconv.Atoi(parts[0])
		if err != nil {
			return smartexp3.Topology{}, false, fmt.Errorf("topology %q: bad network count: %w", name, err)
		}
		bw, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return smartexp3.Topology{}, false, fmt.Errorf("topology %q: bad bandwidth: %w", name, err)
		}
		return smartexp3.UniformTopology(k, bw), false, nil
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(name), "metro:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return smartexp3.Topology{}, false, fmt.Errorf("topology %q: want metro:<areas>:<aps>:<cells>", name)
		}
		var dims [3]int
		for i, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil {
				return smartexp3.Topology{}, false, fmt.Errorf("topology %q: bad dimension %q: %w", name, p, err)
			}
			dims[i] = v
		}
		spec := smartexp3.TopologySpec{Areas: dims[0], APsPerArea: dims[1], Cells: dims[2]}
		if spec.APsPerArea > 0 && spec.Areas > 1 {
			spec.Overlap = 1
		}
		if err := spec.Validate(); err != nil {
			return smartexp3.Topology{}, false, err
		}
		return smartexp3.GenerateTopology(spec), true, nil
	}
	return smartexp3.Topology{}, false, fmt.Errorf("unknown topology %q", name)
}
