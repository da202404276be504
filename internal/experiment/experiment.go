// Package experiment defines one runnable experiment per table and figure of
// the paper's evaluation (Sections VI and VII) plus the Theorem 2 bound
// check and a feature-ablation study. Each experiment aggregates many
// simulation runs into the same rows/series the paper reports and returns a
// report.Report.
//
// Experiments that share underlying simulations (the static-setting figures,
// the dynamic scenarios, the testbed figures) share per-process caches so
// that regenerating all artifacts does not recompute the same 500-run sweeps
// repeatedly.
package experiment

import (
	"sort"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/report"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// Options scales every experiment. The zero value is unusable; start from
// Default or Quick.
type Options struct {
	// Runs is the number of replications for the synthetic-simulation
	// experiments (the paper uses 500).
	Runs int
	// Slots is the synthetic-simulation horizon (the paper uses 1200 slots
	// of 15 s = 5 hours).
	Slots int
	// Devices is the population size of the standard settings (paper: 20).
	Devices int
	// Seed makes the whole suite reproducible.
	Seed int64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Session, when non-nil, runs replication batches whose configuration
	// is serializable across the cluster layer (internal/cluster) instead
	// of the in-process pool. The experiment suite is hundreds of small
	// batches, and a warm session turns each one into a couple of frames
	// on an open stream; cmd/reproduce opens one session for the whole
	// run. Results are byte-identical either way; configurations that
	// cannot cross the wire (the ablation's PolicyFactory) silently stay
	// in-process.
	Session *cluster.Session
	// ClusterAffinity tags this experiment's batches with a 1-based
	// placement hint: a session offers chunks of experiment a to shard
	// (a-1) mod nShards first, so concurrently running experiments
	// (-parexp) each stream to "their" worker instead of interleaving
	// everywhere. Zero means no preference; results are byte-identical
	// regardless.
	ClusterAffinity int

	// ScaleRuns and ScaleSlots control the Figure 6 scalability sweep
	// (paper: 500 runs of 8640 slots).
	ScaleRuns  int
	ScaleSlots int

	// TraceRuns controls Table VI / Figure 12 (paper: 500).
	TraceRuns int

	// TestbedRuns, TestbedSlots and TestbedSlotDuration control the
	// real-TCP controlled experiments (paper: 10 runs of 480 slots of 15 s;
	// here each slot lasts TestbedSlotDuration of wall time).
	TestbedRuns         int
	TestbedSlots        int
	TestbedSlotDuration time.Duration

	// WildRuns controls the in-the-wild emulation (paper: 12 runs each).
	WildRuns int
}

// Default returns full-harness options sized for cmd/reproduce: paper-shaped
// horizons with a replication count that completes in minutes on a small
// machine. Pass -runs=500 to match the paper exactly.
func Default() Options {
	return Options{
		Runs:                150,
		Slots:               1200,
		Devices:             20,
		Seed:                1,
		ScaleRuns:           40,
		ScaleSlots:          8640,
		TraceRuns:           300,
		TestbedRuns:         3,
		TestbedSlots:        480,
		TestbedSlotDuration: 50 * time.Millisecond,
		WildRuns:            12,
	}
}

// Quick returns options small enough for unit tests and testing.B
// benchmarks; shapes remain observable but confidence intervals are wide.
func Quick() Options {
	return Options{
		Runs:                8,
		Slots:               400,
		Devices:             20,
		Seed:                1,
		ScaleRuns:           4,
		ScaleSlots:          1600,
		TraceRuns:           24,
		TestbedRuns:         1,
		TestbedSlots:        30,
		TestbedSlotDuration: 30 * time.Millisecond,
		WildRuns:            4,
	}
}

func (o Options) workers() int {
	return runner.Workers(o.Workers)
}

// replications builds the runner batch for n seeded replications of one
// scenario cell, namespaced by stream so no two cells share RNG streams.
func (o Options) replications(n int, stream ...int64) runner.Replications {
	return runner.Replications{
		Runs:    n,
		Workers: o.Workers,
		Seed:    o.Seed,
		Stream:  stream,
	}
}

// replicate runs one replication batch: across the session's cluster when
// possible, in-process otherwise. Every experiment's simulation sweeps go
// through here, so `reproduce -cluster host:port,...` shards the whole
// suite without any per-experiment wiring. The merge order — ascending run
// index from a single goroutine — is identical on both paths, which keeps
// the emitted artifacts byte-identical with and without a cluster.
func (o Options) replicate(batch runner.Replications, cfg sim.Config, merge func(run int, res *sim.Result) error) error {
	if o.Session != nil && cluster.Shardable(cfg) == nil {
		job, err := cluster.NewJob(batch, cfg)
		if err != nil {
			return err
		}
		job.Affinity = o.ClusterAffinity
		// No dial, no handshake — the job's descriptor and ranges pipeline
		// onto the session's already-open worker streams.
		return o.Session.Run(job, merge)
	}
	// No cluster, or a config that cannot cross the wire (custom
	// factory/sampler): run in-process.
	return sim.Replicate(batch, cfg, merge)
}

// Definition describes one runnable experiment.
type Definition struct {
	// ID is the experiment identifier (fig2, tab5, wild, ...).
	ID string
	// Title summarizes what is reproduced.
	Title string
	// Paper states the headline result the paper reports for this artifact.
	Paper string
	// Run executes the experiment.
	Run func(Options) (*report.Report, error)
}

// All returns every experiment in paper order.
func All() []Definition {
	return []Definition{
		{ID: "fig2", Title: "Average number of network switches (Settings 1 & 2)",
			Paper: "EXP3 ≈641/751 switches; block-based ≈30–66; Greedy ≈3–11", Run: runFig2},
		{ID: "fig3", Title: "Percentage of runs reaching a stable state, by type",
			Paper: "Smart EXP3 w/o Reset stable at NE in 99.4%/100% of runs", Run: runFig3},
		{ID: "tab4", Title: "Table IV: median time slots to reach a stable state",
			Paper: "Block 1026/810, Hybrid 583.5/366, Smart w/o Reset 359/244.5", Run: runTable4},
		{ID: "fig4", Title: "Average distance to Nash equilibrium over time (static)",
			Paper: "Smart EXP3 near 0 (ε=7.5) most of the time; EXP3/Full Info ≈40%", Run: runFig4},
		{ID: "tab5", Title: "Table V: mean per-run median cumulative download (GB)",
			Paper: "block-based ≈3.5; EXP3 2.89/2.73; Centralized 3.54", Run: runTable5},
		{ID: "unutil", Title: "Unutilized resources (Greedy's tragedy of the commons)",
			Paper: "Greedy loses ≈8 GB in Setting 1, none in Setting 2", Run: runUnutilized},
		{ID: "fig5", Title: "Fairness: per-run stddev of device downloads (MB)",
			Paper: "Smart EXP3 ≈80%/55% lower stddev than Greedy", Run: runFig5},
		{ID: "fig6", Title: "Scalability: time to stabilize vs networks and devices",
			Paper: "linear in networks, sub-linear in devices; ~100% stable at NE", Run: runFig6},
		{ID: "fig7", Title: "Adaptability: 9 devices join at t=401, leave after t=800",
			Paper: "only Smart EXP3 (w/ and w/o reset) re-converges", Run: runFig7},
		{ID: "fig8", Title: "Adaptability: 16 devices leave after t=600",
			Paper: "only Smart EXP3 discovers the freed resources", Run: runFig8},
		{ID: "fig9", Title: "Mobility across service areas (Figure 1 topology)",
			Paper: "Smart EXP3 best for every device group; reaches ε=7.5", Run: runFig9},
		{ID: "fig10", Title: "Smart EXP3 switches across static and dynamic settings",
			Paper: "comparable across settings (≈64–68); moving devices ≈102", Run: runFig10},
		{ID: "fig11", Title: "Robustness against greedy devices (3 population mixes)",
			Paper: "Smart EXP3 performs well in all mixes; Greedy collapses in mix 3", Run: runFig11},
		{ID: "tab6", Title: "Table VI: trace-driven download and switching cost (MB)",
			Paper: "Smart wins traces 1/3/4 (764 vs 671, 658 vs 428, 811 vs 758); ties trace 2", Run: runTable6},
		{ID: "fig12", Title: "Trace-driven selection time series (traces 1 and 3)",
			Paper: "Smart EXP3 tracks whichever network is currently better", Run: runFig12},
		{ID: "tab7", Title: "Table VII: testbed median download % and stddev",
			Paper: "Smart 6.89% (σ 1.55) vs Greedy 6.29% (σ 2.87)", Run: runTable7},
		{ID: "fig13", Title: "Testbed: distance from average available bit rate (static)",
			Paper: "Smart EXP3's distance drops over time; Greedy's grows", Run: runFig13},
		{ID: "fig14", Title: "Testbed: 9 of 14 devices leave mid-run",
			Paper: "Smart EXP3 discovers freed resources; Greedy does not", Run: runFig14},
		{ID: "fig15", Title: "Testbed: 7 Smart EXP3 vs 7 Greedy devices",
			Paper: "Smart EXP3 devices observe lower distance on average", Run: runFig15},
		{ID: "wild", Title: "In-the-wild 500 MB download completion time",
			Paper: "Smart EXP3 ≈1.2× faster (12.90 vs 15.67 minutes)", Run: runWild},
		{ID: "thm2", Title: "Theorem 2: empirical switches vs analytic bound",
			Paper: "E[S(T)] < 3k·log(T+1)/log(1+β)", Run: runTheorem2},
		{ID: "thm3", Title: "Theorem 3: weak regret per slot shrinks with the horizon",
			Paper: "Smart EXP3 is Hannan-consistent (weak regret → 0)", Run: runTheorem3},
		{ID: "ablate", Title: "Ablation of Smart EXP3's mechanisms",
			Paper: "each mechanism motivated in Section III", Run: runAblation},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Definition, bool) {
	for _, d := range All() {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	defs := All()
	ids := make([]string, len(defs))
	for i, d := range defs {
		ids[i] = d.ID
	}
	return ids
}

// forEach runs fn(0..n-1) on up to workers goroutines and returns the first
// error. It delegates to the shared Monte Carlo pool (internal/runner).
func forEach(workers, n int, fn func(i int) error) error {
	return runner.ForEach(workers, n, fn)
}

// medianOf returns the median of xs (convenience wrapper keeping the
// experiment files terse).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
