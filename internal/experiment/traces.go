package experiment

import (
	"fmt"
	"math"

	"smartexp3/internal/core"
	"smartexp3/internal/report"
	"smartexp3/internal/runner"
	"smartexp3/internal/trace"
)

// traceOutcomes runs the trace-driven simulation many times for one pair and
// algorithm, returning per-run downloads and switching costs (MB).
func traceOutcomes(o Options, pair trace.Pair, alg core.Algorithm, tag int64) (downloads, costs []float64, results []*trace.RunResult, err error) {
	downloads = make([]float64, o.TraceRuns)
	costs = make([]float64, o.TraceRuns)
	results = make([]*trace.RunResult, o.TraceRuns)
	err = runner.Merge(o.replications(o.TraceRuns, 1200, tag, int64(alg)),
		func(run int, seed int64) (*trace.RunResult, error) {
			return trace.Run(trace.RunConfig{Pair: pair, Algorithm: alg, Seed: seed})
		},
		func(run int, res *trace.RunResult) error {
			downloads[run] = res.DownloadMB
			costs[run] = res.SwitchCostMB
			results[run] = res
			return nil
		})
	return downloads, costs, results, err
}

// runTable6 reproduces Table VI: median cumulative download and switching
// cost for Smart EXP3 and Greedy on the four trace pairs.
func runTable6(o Options) (*report.Report, error) {
	tbl := report.Table{
		Title: "Median cumulative download (MB) and total switching cost (MB)",
		Columns: []string{
			"Trace pair", "Smart download", "Smart cost", "Greedy download", "Greedy cost",
		},
	}
	pairs := trace.PaperPairs(o.Seed)
	for pi, pair := range pairs {
		row := []string{fmt.Sprintf("Trace %d (%s)", pi+1, pair.Name)}
		for _, alg := range []core.Algorithm{core.AlgSmartEXP3, core.AlgGreedy} {
			downloads, costs, _, err := traceOutcomes(o, pair, alg, int64(pi))
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(medianOf(downloads), 2), report.F(medianOf(costs), 2))
		}
		tbl.AddRow(row...)
	}
	return &report.Report{
		ID:     "tab6",
		Title:  "Table VI: trace-driven simulation",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Traces are synthetic equivalents of the paper's measured pairs (see package internal/trace): pair 2 keeps cellular strictly better throughout; the others have no always-best network.",
		},
	}, nil
}

// runFig12 reproduces Figure 12: for traces 1 and 3, the per-slot WiFi and
// cellular bit rates together with the bit rate observed by a median-download
// Smart EXP3 run.
func runFig12(o Options) (*report.Report, error) {
	rep := &report.Report{
		ID:    "fig12",
		Title: "Figure 12: Smart EXP3 selection on traces 1 and 3",
	}
	pairs := trace.PaperPairs(o.Seed)
	for _, pi := range []int{0, 2} {
		pair := pairs[pi]
		downloads, _, results, err := traceOutcomes(o, pair, core.AlgSmartEXP3, int64(pi))
		if err != nil {
			return nil, err
		}
		med := medianOf(downloads)
		best, bestGap := 0, math.Inf(1)
		for i, dl := range downloads {
			if gap := math.Abs(dl - med); gap < bestGap {
				best, bestGap = i, gap
			}
		}
		chart := report.Chart{
			Title:  fmt.Sprintf("Trace %d: bit rates and Smart EXP3's selection (Mbps)", pi+1),
			XLabel: "slot",
		}
		chart.Add("WiFi", pair.WiFi.Rates)
		chart.Add("Cellular", pair.Cellular.Rates)
		chart.Add("Smart EXP3", results[best].RateMbps)
		rep.Charts = append(rep.Charts, chart)
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("Trace %d: plotted run downloaded %.1f MB (median %.1f MB) with %d switches.",
				pi+1, downloads[best], med, results[best].Switches))
	}
	return rep, nil
}
