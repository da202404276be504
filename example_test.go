package smartexp3_test

import (
	"fmt"
	"math/rand"

	"smartexp3"
)

// ExampleNewPolicy drives a single Smart EXP3 policy by hand: three networks
// whose quality the device can only learn by using them. The best network
// (index 2) ends up selected in the overwhelming majority of slots.
func ExampleNewPolicy() {
	rng := rand.New(rand.NewSource(7))
	policy, err := smartexp3.NewPolicy(smartexp3.AlgSmartEXP3, []int{0, 1, 2}, rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	rates := []float64{4, 7, 22} // Mbps, unknown to the device
	counts := make([]int, 3)
	for t := 0; t < 300; t++ {
		network := policy.Select()
		counts[network]++
		policy.Observe(rates[network] / 22) // gain scaled into [0,1]
	}
	fmt.Println("best network selected most:", counts[2] > 250)
	// Output:
	// best network selected most: true
}

// ExampleNashCounts computes the paper's Setting 1 equilibrium: 20 devices
// over networks of 4, 7 and 22 Mbps split (2, 4, 14).
func ExampleNashCounts() {
	counts := smartexp3.NashCounts([]float64{4, 7, 22}, 20)
	fmt.Println(counts)
	// Output:
	// [2 4 14]
}

// ExampleDistanceToNash reproduces the paper's worked example: devices
// observing 1, 1 and 4 Mbps when the equilibrium would give each 2 Mbps are
// 100% away from equilibrium.
func ExampleDistanceToNash() {
	d := smartexp3.DistanceToNash([]float64{1, 1, 4}, []float64{2, 2, 2})
	fmt.Printf("%.0f%%\n", d)
	// Output:
	// 100%
}

// ExampleSimulate runs the paper's Setting 1 population and reports whether
// the decentralized learners found the equilibrium.
func ExampleSimulate() {
	res, err := smartexp3.Simulate(smartexp3.SimConfig{
		Topology: smartexp3.Setting1(),
		Devices:  smartexp3.UniformDevices(20, smartexp3.AlgSmartEXP3NoReset),
		Slots:    1200,
		Seed:     2,
		Collect:  smartexp3.CollectOptions{Distance: true},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	late := res.Distance[900:]
	var mean float64
	for _, d := range late {
		mean += d / float64(len(late))
	}
	fmt.Println("late distance under 7.5% (the paper's ε):", mean < 7.5)
	// Output:
	// late distance under 7.5% (the paper's ε): true
}

// ExampleNewSimEngine is the Monte Carlo replication shape: a generated
// multi-area topology with devices spread across its areas, compiled into
// one immutable engine, and every replication run through one reused
// workspace. Each replication is a pure function of its seed, so replaying
// a seed on the same workspace reproduces it exactly.
func ExampleNewSimEngine() {
	spec := smartexp3.TopologySpec{Areas: 4, APsPerArea: 3, Cells: 2, Overlap: 1}
	top := smartexp3.GenerateTopology(spec)
	fmt.Printf("%d networks over %d areas\n", len(top.Networks), len(top.Areas))

	eng, err := smartexp3.NewSimEngine(smartexp3.SimConfig{
		Topology: top,
		Devices:  smartexp3.SpreadDevices(40, smartexp3.AlgSmartEXP3, len(top.Areas)),
		Slots:    60,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	ws := eng.NewWorkspace()
	downloaded := func(seed int64) (float64, error) {
		res, err := eng.Run(ws, seed)
		if err != nil {
			return 0, err
		}
		var mb float64
		for d := range res.Devices {
			mb += res.Devices[d].DownloadMb
		}
		return mb, nil
	}
	var first float64
	for run := 0; run < 3; run++ {
		mb, err := downloaded(int64(run + 1))
		if err != nil {
			fmt.Println(err)
			return
		}
		if run == 0 {
			first = mb
		}
		fmt.Printf("run %d: traffic flowed: %v\n", run+1, mb > 0)
	}
	replay, err := downloaded(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("replay of run 1 identical:", replay == first)
	// Output:
	// 14 networks over 4 areas
	// run 1: traffic flowed: true
	// run 2: traffic flowed: true
	// run 3: traffic flowed: true
	// replay of run 1 identical: true
}
