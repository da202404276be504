package core_test

import (
	"math/rand"
	"testing"

	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// blockWork counts block starts, the periodic reset checks among them
// that had to scan the distribution, and main blocks across every policy
// of a run.
type blockWork struct{ starts, scans, mains int }

// countingPolicy is a Smart EXP3 policy that classifies each block start
// into a shared blockWork.
type countingPolicy struct {
	*core.SmartEXP3
	work *blockWork
}

func (c countingPolicy) Select() int {
	before := core.PendingExplore(c.SmartEXP3)
	id := c.SmartEXP3.Select()
	started, scanned, main := core.BlockStartWork(c.SmartEXP3, before)
	if started {
		c.work.starts++
	}
	if scanned {
		c.work.scans++
	}
	if main {
		c.work.mains++
	}
	return id
}

// TestBlockStartsFillOnlyForTheGreedyCheck runs four replications of the
// large-topology configuration (500 Smart EXP3 devices, 200 slots) and
// counts where the O(k) distribution scan happens. At β = 0.1 no block can
// reach ResetBlockLength within 200 slots, so the periodic reset check
// must never scan; only the greedy-eligibility check of a main block does.
func TestBlockStartsFillOnlyForTheGreedyCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 500-device replications")
	}
	var work blockWork
	topo := netmodel.Large()
	cfg := sim.Config{
		Topology: topo, Devices: sim.SpreadDevices(500, core.AlgSmartEXP3, len(topo.Areas)), Slots: 200,
		PolicyFactory: func(_ int, available []int, rng *rand.Rand) (core.Policy, error) {
			p := core.NewSmartEXP3(core.AlgSmartEXP3.String(), core.FeaturesFor(core.AlgSmartEXP3), available, core.DefaultConfig(), rng)
			return countingPolicy{p, &work}, nil
		},
	}
	resets := 0
	err := sim.Replicate(runner.Replications{Runs: 4, Workers: 1, Seed: 1}, cfg, func(_ int, res *sim.Result) error {
		for _, d := range res.Devices {
			resets += d.Resets
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("block starts %d, periodic reset scans %d, main blocks %d, resets %d", work.starts, work.scans, work.mains, resets)
	if work.mains == 0 || work.mains >= work.starts {
		t.Fatalf("%d main blocks among %d block starts; the run does not exercise the skip", work.mains, work.starts)
	}
	if work.scans != 0 {
		t.Fatalf("%d periodic reset checks scanned the distribution; want none", work.scans)
	}
}
