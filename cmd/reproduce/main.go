// Command reproduce regenerates the paper's evaluation artifacts: one
// experiment per table and figure of Sections VI and VII, plus the Theorem 2
// bound check and a feature ablation. Reports are printed and written under
// -out as text, markdown and CSV series.
//
// Usage:
//
//	reproduce                     # run everything at default scale
//	reproduce -run fig2,tab5      # run selected experiments
//	reproduce -runs 500           # match the paper's replication count
//	reproduce -quick              # tiny smoke-scale pass
//	reproduce -parexp             # overlap whole experiments, print in order
//	reproduce -cluster h1:9631,h2:9631  # shard simulation sweeps over shardd workers
//	reproduce -list               # list experiment ids
//
// Replications always fan out across the internal/runner pool (bounded by
// -workers, default GOMAXPROCS) and merge in run order, so the emitted
// artifacts are bit-identical for every worker count. -parexp additionally
// overlaps whole experiments, which pays off when wall-clock-bound testbed
// experiments can hide behind CPU-bound sweeps; shared scenario caches are
// deduplicated, so overlapping experiments never repeat a sweep.
//
// -cluster routes every serializable simulation sweep through one
// persistent internal/cluster session instead of the in-process pool: each
// shardd worker is dialed once for the whole run, and the suite's hundreds
// of small batches pipeline over the open streams (per-batch cost is a
// couple of frames, not a dial + handshake). Failed workers' ranges are
// reassigned, across reconnects if need be. Merge order is unchanged, so
// the artifacts stay bit-identical with and without a cluster; experiments
// whose configurations cannot cross the wire (the ablation's policy
// factory) run in-process as before.
//
// -parexp combined with -cluster is shard-aware: experiment-level
// concurrency is sized to cover the workers and each experiment's batches
// carry an affinity for "its" worker, so whole serializable experiments
// stream to distinct shards instead of interleaving everywhere (idle
// workers still steal, and results are identical either way).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/experiment"
	"smartexp3/internal/report"
	"smartexp3/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiment ids and exit")
		ids     = fs.String("run", "", "comma-separated experiment ids (default: all)")
		quick   = fs.Bool("quick", false, "smoke-scale options (fast, noisy)")
		runs    = fs.Int("runs", 0, "override replication count (paper: 500)")
		slots   = fs.Int("slots", 0, "override simulation horizon (paper: 1200)")
		seed    = fs.Int64("seed", 0, "override base seed")
		workers = fs.Int("workers", 0, "override worker count (default: GOMAXPROCS)")
		parexp  = fs.Bool("parexp", false, "run whole experiments concurrently (results still print in order)")
		clstr   = fs.String("cluster", "", "comma-separated shardd addresses to shard simulation sweeps across")
		outDir  = fs.String("out", "results", "output directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	defs := experiment.All()
	if *list {
		for _, d := range defs {
			fmt.Printf("%-8s %s\n         paper: %s\n", d.ID, d.Title, d.Paper)
		}
		return nil
	}

	opts := experiment.Default()
	if *quick {
		opts = experiment.Quick()
	}
	if *runs > 0 {
		opts.Runs = *runs
		opts.TraceRuns = *runs
	}
	if *slots > 0 {
		opts.Slots = *slots
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	shards := cluster.ParseShards(*clstr)
	if len(shards) > 0 {
		// One persistent session for the whole run: every worker is dialed
		// once, and all experiments' batches pipeline over it.
		sess := cluster.NewSession(shards, cluster.Options{
			LocalWorkers: opts.Workers,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "reproduce: "+format+"\n", args...)
			},
		})
		defer sess.Close()
		opts.Session = sess
	}

	selected := defs
	if *ids != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			def, ok := experiment.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, def)
		}
	}

	type outcome struct {
		rep     *report.Report
		elapsed time.Duration
	}
	expWorkers := 1
	if *parexp {
		total := runner.Workers(opts.Workers)
		expWorkers = total
		if n := len(shards); n > 0 {
			// Shard-aware split: with a cluster, the heavy lifting is
			// remote, so size experiment-level concurrency to cover the
			// workers (each concurrent experiment's batches carry an
			// affinity for "its" shard below) and keep the local pool for
			// merging and the in-process experiments.
			if n > expWorkers {
				expWorkers = n
			}
		}
		if expWorkers > len(selected) {
			expWorkers = len(selected)
		}
		if len(shards) == 0 {
			// Split the worker budget between the experiment level and each
			// experiment's replication pool so the two levels multiplied
			// never oversubscribe the machine.
			opts.Workers = total / expWorkers
			if opts.Workers < 1 {
				opts.Workers = 1
			}
		}
	}
	return runner.MergeOrdered(expWorkers, len(selected),
		func(i int) (outcome, error) {
			def := selected[i]
			if !*parexp {
				fmt.Printf(">>> %s: %s\n", def.ID, def.Title)
			}
			start := time.Now()
			eopts := opts
			// Whole experiments map to workers: experiment i's serializable
			// batches prefer shard i mod nShards.
			eopts.ClusterAffinity = i + 1
			rep, err := def.Run(eopts)
			if err != nil {
				return outcome{}, fmt.Errorf("%s: %w", def.ID, err)
			}
			return outcome{rep: rep, elapsed: time.Since(start)}, nil
		},
		func(i int, out outcome) error {
			def := selected[i]
			if *parexp {
				fmt.Printf(">>> %s: %s\n", def.ID, def.Title)
			}
			fmt.Print(out.rep.String())
			fmt.Printf("(%s in %s; paper: %s)\n\n", def.ID, out.elapsed.Round(time.Millisecond), def.Paper)
			return report.WriteFiles(*outDir, out.rep)
		})
}
