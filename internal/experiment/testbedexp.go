package experiment

import (
	"fmt"

	"smartexp3/internal/core"
	"smartexp3/internal/game"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/report"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/runner"
	"smartexp3/internal/stats"
	"smartexp3/internal/testbed"
)

// Testbed scenarios (Section VII-A). The paper's hardware — three APs with
// bandwidths 4, 7 and 22 Mbps and 14 Raspberry Pi clients — is reproduced
// over real TCP connections on localhost (internal/testbed).
const (
	testbedStatic  = 1 // tab7 + fig13
	testbedDynamic = 2 // fig14: 9 of 14 devices leave mid-run
	testbedMixed   = 3 // fig15: 7 Smart EXP3 + 7 Greedy
)

func testbedAPs() []netmodel.Network {
	return []netmodel.Network{
		{Name: "ap-4", Type: netmodel.WiFi, Bandwidth: 4},
		{Name: "ap-7", Type: netmodel.WiFi, Bandwidth: 7},
		{Name: "ap-22", Type: netmodel.WiFi, Bandwidth: 22},
	}
}

func testbedDevices(scenario int, alg core.Algorithm, slots int) []testbed.DeviceSpec {
	const n = 14
	devices := make([]testbed.DeviceSpec, n)
	for d := range devices {
		devices[d] = testbed.DeviceSpec{Algorithm: alg}
		switch scenario {
		case testbedDynamic:
			if d >= n-9 {
				devices[d].Leave = slots / 2
			}
		case testbedMixed:
			if d >= n/2 {
				devices[d].Algorithm = core.AlgGreedy
			}
		}
	}
	return devices
}

// testbedAgg aggregates TestbedRuns runs of one (scenario, algorithm) cell.
type testbedAgg struct {
	Distance *stats.Series
	// SmartDistance/GreedyDistance split Definition 4 by sub-population in
	// the mixed scenario.
	SmartDistance  *stats.Series
	GreedyDistance *stats.Series
	// MedianPct and SDPct hold, per run, the median and stddev over devices
	// of the download percentage (Table VII's cells).
	MedianPct []float64
	SDPct     []float64
	Switches  []float64
	Optimal   float64
}

type testbedKey struct {
	scenario int
	alg      core.Algorithm
	runs     int
	slots    int
	seed     int64
}

var testbedCache runner.Group[testbedKey, *testbedAgg]

// testbedAggFor runs the cell (serially — the testbed is wall-clock-bound
// and contends for real sockets and CPU, so runs must not overlap). The
// runner.Group still deduplicates concurrent callers of the same cell.
func testbedAggFor(o Options, scenario int, alg core.Algorithm) (*testbedAgg, error) {
	key := testbedKey{scenario, alg, o.TestbedRuns, o.TestbedSlots, o.Seed}
	return testbedCache.Do(key, func() (*testbedAgg, error) {
		agg := &testbedAgg{
			Distance:       stats.NewSeries(o.TestbedSlots),
			SmartDistance:  stats.NewSeries(o.TestbedSlots),
			GreedyDistance: stats.NewSeries(o.TestbedSlots),
		}
		for run := 0; run < o.TestbedRuns; run++ {
			cfg := testbed.Config{
				APs:          testbedAPs(),
				Devices:      testbedDevices(scenario, alg, o.TestbedSlots),
				Slots:        o.TestbedSlots,
				SlotDuration: o.TestbedSlotDuration,
				Seed:         rngutil.ChildSeed(o.Seed, 1300, int64(scenario), int64(alg), int64(run)),
			}
			res, err := testbed.Run(cfg)
			if err != nil {
				return nil, err
			}
			agg.Optimal = res.OptimalDistance
			agg.Distance.AddRun(res.Distance)
			mergeTestbedRun(agg, cfg, res)
		}
		return agg, nil
	})
}

func mergeTestbedRun(agg *testbedAgg, cfg testbed.Config, res *testbed.Result) {
	var pcts []float64
	var aggBW float64
	for _, ap := range cfg.APs {
		aggBW += ap.Bandwidth
	}
	for d := range res.Devices {
		pcts = append(pcts, res.Devices[d].DownloadPct)
		agg.Switches = append(agg.Switches, float64(res.Devices[d].Switches))
	}
	agg.MedianPct = append(agg.MedianPct, medianOf(pcts))
	agg.SDPct = append(agg.SDPct, stats.StdDev(pcts))

	// Sub-population Definition 4 distances (fig15): measure each group
	// against the fair share of the full population.
	fair := aggBW / float64(len(res.Devices))
	for t := 0; t < len(res.Distance); t++ {
		var smartRates, greedyRates []float64
		for d := range res.Devices {
			r := res.Devices[d].BitrateMbps[t]
			if r < 0 {
				continue
			}
			if res.Devices[d].Algorithm == core.AlgGreedy {
				greedyRates = append(greedyRates, r)
			} else {
				smartRates = append(smartRates, r)
			}
		}
		if len(smartRates) > 0 {
			agg.SmartDistance.Add(t, game.DistanceBelowFairRate(fair, smartRates))
		}
		if len(greedyRates) > 0 {
			agg.GreedyDistance.Add(t, game.DistanceBelowFairRate(fair, greedyRates))
		}
	}
}

func runTable7(o Options) (*report.Report, error) {
	tbl := report.Table{
		Title:   "Per-run median cumulative download (% of estimated total possible)",
		Columns: []string{"Algorithm", "(Average) median %", "(Average) stddev", "Median switches/device"},
	}
	for _, alg := range []core.Algorithm{core.AlgSmartEXP3, core.AlgGreedy} {
		agg, err := testbedAggFor(o, testbedStatic, alg)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(alg.String(),
			report.F(stats.Mean(agg.MedianPct), 2),
			report.F(stats.Mean(agg.SDPct), 2),
			report.F(medianOf(agg.Switches), 1))
	}
	return &report.Report{
		ID:     "tab7",
		Title:  "Table VII: controlled-experiment downloads",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Real TCP over localhost through token-bucket-limited APs (see package internal/testbed); the fair share for 14 devices is 100/14 ≈ 7.14%.",
		},
	}, nil
}

func testbedDistanceReport(o Options, id, title string, scenario int, note string) (*report.Report, error) {
	chart := report.Chart{Title: title, XLabel: "slot"}
	var optimal float64
	for _, alg := range []core.Algorithm{core.AlgSmartEXP3, core.AlgGreedy} {
		agg, err := testbedAggFor(o, scenario, alg)
		if err != nil {
			return nil, err
		}
		optimal = agg.Optimal
		chart.Add(alg.String(), agg.Distance.Mean())
	}
	flat := make([]float64, o.TestbedSlots)
	for i := range flat {
		flat[i] = optimal
	}
	chart.Add("Optimal", flat)
	return &report.Report{
		ID:     id,
		Title:  title,
		Charts: []report.Chart{chart},
		Notes:  []string{note},
	}, nil
}

func runFig13(o Options) (*report.Report, error) {
	return testbedDistanceReport(o, "fig13",
		"Figure 13: mean distance from average bit rate available (static testbed)",
		testbedStatic,
		"Distance per Definition 4; 'Optimal' is the Nash-allocation floor.")
}

func runFig14(o Options) (*report.Report, error) {
	return testbedDistanceReport(o, "fig14",
		"Figure 14: distance from average bit rate, 9 of 14 devices leave mid-run",
		testbedDynamic,
		fmt.Sprintf("9 devices leave after slot %d, freeing resources.", o.TestbedSlots/2))
}

func runFig15(o Options) (*report.Report, error) {
	agg, err := testbedAggFor(o, testbedMixed, core.AlgSmartEXP3)
	if err != nil {
		return nil, err
	}
	chart := report.Chart{
		Title:  "Figure 15: 7 Smart EXP3 vs 7 Greedy devices — distance from fair share",
		XLabel: "slot",
	}
	chart.Add("Smart EXP3 devices", agg.SmartDistance.Mean())
	chart.Add("Greedy devices", agg.GreedyDistance.Mean())
	flat := make([]float64, o.TestbedSlots)
	for i := range flat {
		flat[i] = agg.Optimal
	}
	chart.Add("Optimal", flat)
	return &report.Report{
		ID:     "fig15",
		Title:  "Figure 15: mixed population on the testbed",
		Charts: []report.Chart{chart},
	}, nil
}
