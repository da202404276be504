package core

import (
	"math"
	"reflect"
	"testing"

	"smartexp3/internal/rngutil"
)

func newSmart(t *testing.T, alg Algorithm, available []int, seed int64) *SmartEXP3 {
	t.Helper()
	pol, err := New(alg, available, DefaultConfig(), rngutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	smart, ok := pol.(*SmartEXP3)
	if !ok {
		t.Fatalf("New(%v) returned %T", alg, pol)
	}
	return smart
}

func TestSmartExploresEveryNetworkFirst(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{3, 7, 9}, 1)
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		net := p.Select()
		if seen[net] {
			t.Fatalf("network %d explored twice in the initial phase", net)
		}
		seen[net] = true
		p.Observe(0.5)
	}
	if len(seen) != 3 {
		t.Fatalf("initial exploration covered %d networks, want 3", len(seen))
	}
}

func TestEXP3HasNoExplorationPhase(t *testing.T) {
	// Classic EXP3 starts with the uniform mixture; with k=3 and γ=1 the
	// first three selections are i.i.d. uniform, so repeats are likely.
	// Verify structurally: the exploration queue is empty.
	p := newSmart(t, AlgEXP3, []int{0, 1, 2}, 1)
	if len(p.explore) != 0 {
		t.Fatal("EXP3 must not carry an exploration queue")
	}
	if p.feat.Blocking {
		t.Fatal("EXP3 must not block")
	}
}

func TestEXP3BlocksAreSingleSlots(t *testing.T) {
	p := newSmart(t, AlgEXP3, []int{0, 1}, 2)
	for i := 0; i < 50; i++ {
		p.Select()
		if p.blockLen != 1 {
			t.Fatalf("EXP3 block length %d at slot %d, want 1", p.blockLen, i)
		}
		p.Observe(0.5)
	}
}

func TestSmartConvergesToBestNetwork(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1, 2}, 3)
	counts := driveConstGains(t, p,
		map[int]float64{0: 0.1, 1: 0.2, 2: 0.9}, 600)
	if counts[2] < 400 {
		t.Fatalf("best network selected only %d/600 slots: %v", counts[2], counts)
	}
}

func TestEXP3ConvergesToBestNetwork(t *testing.T) {
	p := newSmart(t, AlgEXP3, []int{0, 1}, 4)
	counts := driveConstGains(t, p, map[int]float64{0: 0.05, 1: 0.95}, 2000)
	if counts[1] < counts[0] {
		t.Fatalf("EXP3 prefers the worse arm: %v", counts)
	}
}

func TestProbabilitiesFormDistribution(t *testing.T) {
	for _, alg := range []Algorithm{AlgEXP3, AlgBlockEXP3, AlgHybridBlockEXP3, AlgSmartEXP3NoReset, AlgSmartEXP3} {
		p := newSmart(t, alg, []int{0, 1, 2, 3}, 5)
		rng := rngutil.New(99)
		for i := 0; i < 500; i++ {
			p.Select()
			probs := p.Probabilities()
			var sum float64
			for _, pr := range probs {
				if pr < 0 || pr > 1 || math.IsNaN(pr) {
					t.Fatalf("%v: invalid probability %v at slot %d", alg, pr, i)
				}
				sum += pr
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v: probabilities sum to %v at slot %d", alg, sum, i)
			}
			p.Observe(rng.Float64())
		}
	}
}

func TestWeightsStayFiniteOverLongHorizons(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1, 2}, 6)
	driveConstGains(t, p, map[int]float64{0: 1, 1: 1, 2: 1}, 10000)
	for i, lw := range p.w.logW {
		if math.IsNaN(lw) || math.IsInf(lw, 0) {
			t.Fatalf("log-weight %d is %v after 10k slots", i, lw)
		}
	}
	// The lazy shift must keep every exponent within the safe span (the
	// incremental-normalization invariant) and the linear-space view finite.
	if span := maxOf(p.w.logW) - p.w.shift; span < 0 || span > weightReshiftSpan {
		t.Fatalf("log-weights drifted outside the reshift span: %v", span)
	}
	if math.IsNaN(p.w.sumW) || math.IsInf(p.w.sumW, 0) || p.w.sumW <= 0 {
		t.Fatalf("weight sum degenerate: %v", p.w.sumW)
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestBlockLengthsGrowOverTime(t *testing.T) {
	p := newSmart(t, AlgBlockEXP3, []int{0, 1}, 7)
	maxLen := 0
	for i := 0; i < 2000; i++ {
		p.Select()
		if p.blockLen > maxLen {
			maxLen = p.blockLen
		}
		p.Observe(0.8)
	}
	if maxLen < 10 {
		t.Fatalf("block length never grew past %d over 2000 slots", maxLen)
	}
}

func TestNoConsecutiveSwitchBackBlocks(t *testing.T) {
	// Adversarial gains: every network looks worse right after a switch,
	// maximizing switch-back pressure. The no-ping-pong rule must hold.
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1, 2}, 8)
	rng := rngutil.New(123)
	prevWasSB := false
	for i := 0; i < 5000; i++ {
		p.Select()
		if p.curIsSB && prevWasSB && p.slotIn == 0 {
			t.Fatalf("two consecutive switch-back blocks at slot %d", i)
		}
		if p.slotIn == 0 {
			prevWasSB = p.curIsSB
		}
		p.Observe(rng.Float64())
	}
	if p.SwitchBacks() == 0 {
		t.Fatal("adversarial noise never triggered a switch-back; the mechanism looks dead")
	}
}

func TestSwitchBackReturnsToPreviousNetwork(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1}, 9)
	// Network 0 is great, network 1 terrible: whenever the sampler tries 1,
	// the first slot should reveal it and switch back to 0.
	gains := map[int]float64{0: 0.9, 1: 0.05}
	last := -1
	sbSeen := false
	for i := 0; i < 3000; i++ {
		net := p.Select()
		if p.curIsSB && p.slotIn == 0 {
			sbSeen = true
			if net != 0 {
				t.Fatalf("switch-back block went to network %d, want 0", net)
			}
			if last != 1 {
				t.Fatalf("switch-back without visiting the bad network (last=%d)", last)
			}
		}
		last = net
		p.Observe(gains[net])
	}
	if !sbSeen {
		t.Fatal("no switch-back observed in 3000 slots of a 0.9-vs-0.05 environment")
	}
}

func TestPeriodicResetFires(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1, 2}, 10)
	driveConstGains(t, p, map[int]float64{0: 0.05, 1: 0.1, 2: 0.95}, 3000)
	if p.Resets() == 0 {
		t.Fatal("periodic reset never fired over 3000 slots of a stable optimum")
	}
}

func TestResetClearsBlockLengthsAndGreedyStats(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1}, 11)
	driveConstGains(t, p, map[int]float64{0: 0.9, 1: 0.1}, 200)
	p.performReset()
	for i := range p.x {
		if p.x[i] != 0 || p.sumGain[i] != 0 || p.cntGain[i] != 0 || p.slotsOn[i] != 0 {
			t.Fatalf("reset left learning state: x=%v sum=%v cnt=%v slots=%v",
				p.x, p.sumGain, p.cntGain, p.slotsOn)
		}
	}
	if len(p.explore) != p.k {
		t.Fatalf("reset queued %d networks for exploration, want %d", len(p.explore), p.k)
	}
}

func TestResetKeepsWeights(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1}, 12)
	driveConstGains(t, p, map[int]float64{0: 0.9, 1: 0.1}, 300)
	before := append([]float64(nil), p.w.logW...)
	p.performReset()
	for i := range before {
		if p.w.logW[i] != before[i] {
			t.Fatal("minimal reset must keep the learned weights")
		}
	}
}

func TestQualityDropTriggersReset(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1}, 13)
	// Learn that network 0 is good...
	driveConstGains(t, p, map[int]float64{0: 0.9, 1: 0.05}, 300)
	resetsBefore := p.Resets()
	// ...then crash its quality. The drop detector must reset within a
	// couple of blocks.
	fired := false
	for i := 0; i < 120; i++ {
		net := p.Select()
		g := 0.05
		if net == 0 {
			g = 0.3 // 67% below the ≈0.9 historical average
		}
		p.Observe(g)
		if p.Resets() > resetsBefore {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("quality-drop reset never fired after the preferred network degraded")
	}
}

func TestNoResetVariantNeverResets(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1, 2}, 14)
	driveConstGains(t, p, map[int]float64{0: 0.05, 1: 0.1, 2: 0.95}, 4000)
	if p.Resets() != 0 {
		t.Fatalf("no-reset variant reset %d times", p.Resets())
	}
}

func TestSetAvailableAddsNetworkWithMaxWeightAndResets(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1}, 15)
	driveConstGains(t, p, map[int]float64{0: 0.9, 1: 0.1}, 200)
	resetsBefore := p.Resets()
	p.SetAvailable([]int{0, 1, 2})
	if p.Resets() != resetsBefore+1 {
		t.Fatalf("discovering a network must reset (resets %d → %d)", resetsBefore, p.Resets())
	}
	li := p.local(2)
	if li < 0 {
		t.Fatal("new network missing from the availability set")
	}
	if p.w.logW[li] != maxOf(p.w.logW) {
		t.Fatalf("new network weight %v, want the max %v", p.w.logW[li], maxOf(p.w.logW))
	}
	// The forced exploration must cover the new network.
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		seen[p.Select()] = true
		p.Observe(0.5)
	}
	if !seen[2] {
		t.Fatal("new network was not explored after discovery")
	}
}

func TestSetAvailableRemovingCurrentNetwork(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1, 2}, 16)
	driveConstGains(t, p, map[int]float64{0: 0.9, 1: 0.1, 2: 0.1}, 300)
	// Remove whatever the device currently uses.
	cur := p.Select()
	p.Observe(0.9)
	remaining := make([]int, 0, 2)
	for _, id := range []int{0, 1, 2} {
		if id != cur {
			remaining = append(remaining, id)
		}
	}
	p.SetAvailable(remaining)
	for i := 0; i < 20; i++ {
		net := p.Select()
		if net == cur {
			t.Fatalf("policy selected the removed network %d", net)
		}
		p.Observe(0.5)
	}
}

func TestSetAvailableNoChangeIsNoOp(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1, 2}, 17)
	driveConstGains(t, p, map[int]float64{0: 0.3, 1: 0.3, 2: 0.3}, 50)
	resets := p.Resets()
	p.SetAvailable([]int{2, 1, 0}) // same set, different order
	if p.Resets() != resets {
		t.Fatal("re-announcing the same availability must not reset")
	}
}

func TestSetAvailableEmptyIgnored(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1}, 18)
	p.SetAvailable(nil)
	if len(p.Available()) != 2 {
		t.Fatal("empty availability update must be ignored")
	}
}

func TestGreedyEligibilityStartsTrue(t *testing.T) {
	// The distribution starts uniform, so condition (a) of Section V —
	// max(p)−min(p) ≤ 1/(k−1) — holds and greedy is eligible.
	p := newSmart(t, AlgHybridBlockEXP3, []int{0, 1, 2}, 100)
	p.Select()
	p.Observe(0.5)
	if !p.greedyEligible() {
		t.Fatal("greedy must be eligible under the uniform distribution")
	}
}

func TestGreedyEligibilityExpiresAndCapturesY(t *testing.T) {
	p := newSmart(t, AlgHybridBlockEXP3, []int{0, 1, 2}, 101)
	driveConstGains(t, p, map[int]float64{0: 0.05, 1: 0.1, 2: 0.95}, 1500)
	if !p.condAFailed {
		t.Fatal("condition (a) never failed despite a dominant network")
	}
	if p.yThreshold < 1 {
		t.Fatalf("y threshold %d, want ≥ 1", p.yThreshold)
	}
	// With a concentrated distribution and regrown block lengths, greedy
	// must no longer be eligible.
	p.Select()
	probs := p.Probabilities()
	iPlus := 0
	for li := 1; li < p.k; li++ {
		if probs[li] > probs[iPlus] {
			iPlus = li
		}
	}
	if BlockLength(p.cfg.Beta, p.x[iPlus]) >= p.yThreshold && p.greedyEligible() {
		t.Fatal("greedy still eligible after block lengths regrew past y")
	}
}

func TestBestAverageGainPicksArgmax(t *testing.T) {
	p := newSmart(t, AlgHybridBlockEXP3, []int{0, 1, 2}, 102)
	p.sumGain = []float64{5, 20, 1}
	p.cntGain = []int{10, 25, 10} // averages 0.5, 0.8, 0.1
	if got := p.bestAverageGain(); got != 1 {
		t.Fatalf("bestAverageGain = %d, want 1", got)
	}
}

func TestGreedySelectionUsesHalfProbability(t *testing.T) {
	// While greedy is eligible, block-start selection probabilities must be
	// 1/2 (greedy pick) or p_i/2 (random pick) — never the bare p_i.
	p := newSmart(t, AlgHybridBlockEXP3, []int{0, 1, 2}, 103)
	// Drain the exploration phase first.
	for len(p.explore) > 0 || p.slotIn < p.blockLen-1 {
		p.Select()
		p.Observe(0.5)
	}
	for i := 0; i < 200; i++ {
		p.Select()
		if p.slotIn == 0 && len(p.explore) == 0 && !p.curIsSB && p.greedyWasEligible {
			half := p.selProb == 0.5
			halfRandom := math.Abs(p.selProb-p.armProb(p.cur)/2) < 1e-12
			if !half && !halfRandom {
				t.Fatalf("greedy-phase selection probability %v, want 1/2 or p_i/2", p.selProb)
			}
		}
		p.Observe(0.5)
	}
}

func TestSwitchCounter(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1, 2}, 19)
	last := -1
	want := 0
	for i := 0; i < 500; i++ {
		net := p.Select()
		if last >= 0 && net != last {
			want++
		}
		last = net
		p.Observe(0.5)
	}
	if got := p.Switches(); got != want {
		t.Fatalf("Switches() = %d, counted %d", got, want)
	}
}

func TestSingleNetworkDegenerate(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{4}, 20)
	for i := 0; i < 200; i++ {
		if net := p.Select(); net != 4 {
			t.Fatalf("selected %d with a single network", net)
		}
		p.Observe(0.7)
	}
	if p.Switches() != 0 {
		t.Fatal("switches with one network")
	}
}

func TestZeroGainEnvironment(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1}, 21)
	for i := 0; i < 400; i++ {
		p.Select()
		p.Observe(0)
		probs := p.Probabilities()
		var sum float64
		for _, pr := range probs {
			sum += pr
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("distribution degenerated under zero gains at slot %d", i)
		}
	}
}

func TestGainClamping(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3NoReset, []int{0, 1}, 22)
	for i := 0; i < 200; i++ {
		p.Select()
		p.Observe(5) // out-of-range gains must be clamped, not explode
	}
	for _, lw := range p.w.logW {
		if math.IsNaN(lw) || math.IsInf(lw, 0) {
			t.Fatal("weights exploded under out-of-range gains")
		}
	}
}

func TestDeterminismAcrossIdenticalRuns(t *testing.T) {
	run := func() []int {
		p := newSmart(t, AlgSmartEXP3, []int{0, 1, 2}, 42)
		rng := rngutil.New(7)
		out := make([]int, 600)
		for i := range out {
			out[i] = p.Select()
			p.Observe(rng.Float64())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at slot %d", i)
		}
	}
}

func TestSelectionProbabilityBookkeeping(t *testing.T) {
	// p(b) must always be in (0,1]: it divides the gain estimate.
	p := newSmart(t, AlgSmartEXP3, []int{0, 1, 2}, 23)
	rng := rngutil.New(17)
	for i := 0; i < 2000; i++ {
		p.Select()
		if p.selProb <= 0 || p.selProb > 1 {
			t.Fatalf("selection probability %v out of (0,1] at slot %d", p.selProb, i)
		}
		p.Observe(rng.Float64())
	}
}

// TestSmartEXP3WarmPathAllocs is the AllocsPerRun gate behind the
// //repolint:allocfree markers on the engine's slot loop: Select, Observe,
// Probabilities, extrema, armProb and every weightSet primitive they drive
// (bump, extrema, prob, sample, treeAdd, search) must not allocate once the policy is past
// its initial exploration and the window buffers have reached capacity.
func TestSmartEXP3WarmPathAllocs(t *testing.T) {
	p := newSmart(t, AlgSmartEXP3, []int{0, 1, 2, 3}, 17)
	slot := 0
	step := func() {
		net := p.Select()
		p.Observe(float64(net%3) * 0.3 * (0.8 + 0.01*float64(slot%20)))
		slot++
	}
	for i := 0; i < 2000; i++ { // warm: exploration done, buffers at capacity
		step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		step()
		p.Probabilities() // refills the buffer its first call sized
		_ = p.armProb(1)
	})
	if allocs > 0 {
		t.Fatalf("warm Select/Observe/Probabilities path allocates %.2f objects per slot, want 0", allocs)
	}
}

// TestSmartEXP3SetAvailableWarmAllocs is the AllocsPerRun gate behind the
// //repolint:allocfree markers on the arm-set change (SetAvailable, rebuild
// and the idCursor merge walk): once the policy's buffers have seen the
// largest set, a change that adds, removes or swaps arms — up to stackArms
// of them — must not allocate.
func TestSmartEXP3SetAvailableWarmAllocs(t *testing.T) {
	sets := [][]int{
		{0, 1, 2}, {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, {15, 3},
	}
	for _, alg := range []Algorithm{AlgEXP3, AlgSmartEXP3} {
		p := newSmart(t, alg, sets[0], 23)
		slot := 0
		step := func() {
			p.SetAvailable(sets[slot%len(sets)])
			for i := 0; i < 3; i++ {
				net := p.Select()
				p.Observe(envGain(net, slot))
			}
			slot++
		}
		for i := 0; i < 4*len(sets); i++ { // warm: every buffer has seen the largest set
			step()
		}
		if allocs := testing.AllocsPerRun(300, step); allocs > 0 {
			t.Fatalf("%v: warm arm-set change allocates %.2f objects per change, want 0", alg, allocs)
		}
	}
}

// TestBlockScheduleIsSharedAndExact pins the shared block-length table:
// policies with the same β read one table, and every length, inside the
// table or past it, equals BlockLength.
func TestBlockScheduleIsSharedAndExact(t *testing.T) {
	for _, beta := range []float64{0.1, 0.01, 1} {
		cfg := DefaultConfig()
		cfg.Beta = beta
		p := NewSmartEXP3("a", FeaturesFor(AlgSmartEXP3), []int{0, 1}, cfg, rngutil.New(1))
		q := NewSmartEXP3("b", FeaturesFor(AlgBlockEXP3), []int{2}, cfg, rngutil.New(2))
		if &p.blockLens[0] != &q.blockLens[0] {
			t.Fatalf("β=%v: policies hold separate block-length tables", beta)
		}
		for x := 0; x < blockTableLen+50; x++ {
			if got, want := p.blockLength(x), BlockLength(beta, x); got != want {
				t.Fatalf("β=%v: blockLength(%d) = %d, want %d", beta, x, got, want)
			}
		}
	}
}

// TestResetCheckSkipIsExact runs each configuration twice from one seed:
// once as built, and once with the skip of the periodic reset check turned
// off (resetX = 0, so every block start fills the distribution and asks).
// The two must make the same selections, the same resets and end in the
// same exported state, through stable stretches where periodic resets
// fire and through arm-set churn. resetX must also be the first x whose
// block reaches ResetBlockLength.
func TestResetCheckSkipIsExact(t *testing.T) {
	for _, tc := range []struct {
		beta float64
		rbl  int
	}{{0.1, 40}, {0.5, 5}, {1, 2}, {0.01, 3}, {0.1, 1}, {0.1, 1 << 40}} {
		cfg := DefaultConfig()
		cfg.Beta, cfg.ResetBlockLength = tc.beta, tc.rbl
		p := NewSmartEXP3("skip", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2}, cfg, rngutil.New(17))
		q := NewSmartEXP3("full", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2}, cfg, rngutil.New(17))
		for x := 0; x < p.resetX; x++ {
			if p.blockLength(x) >= tc.rbl {
				t.Fatalf("β=%v, l=%d: resetX %d, but x=%d already reaches it", tc.beta, tc.rbl, p.resetX, x)
			}
		}
		if p.resetX < len(p.blockLens) && p.blockLength(p.resetX) < tc.rbl {
			t.Fatalf("β=%v, l=%d: block at resetX %d is shorter than the reset length", tc.beta, tc.rbl, p.resetX)
		}
		q.resetX = 0
		sets := [][]int{{0, 1, 2}, {0, 2, 3}, {0, 1, 2, 3}}
		for slot := 0; slot < 6000; slot++ {
			if slot%1500 == 1499 {
				next := sets[(slot/1500)%len(sets)]
				p.SetAvailable(next)
				q.SetAvailable(next)
			}
			a, b := p.Select(), q.Select()
			if a != b {
				t.Fatalf("β=%v, l=%d, slot %d: selects %d with the skip, %d without", tc.beta, tc.rbl, slot, a, b)
			}
			g := 0.05
			if a == 2 {
				g = 0.95
			}
			p.Observe(g)
			q.Observe(g)
		}
		var sp, sq PolicyState
		p.ExportState(&sp)
		q.ExportState(&sq)
		if !reflect.DeepEqual(sp, sq) {
			t.Fatalf("β=%v, l=%d: the states differ at the end", tc.beta, tc.rbl)
		}
		if tc.rbl == 40 && p.Resets() == 0 {
			t.Fatalf("β=%v, l=%d: no reset fired; the full check is not exercised", tc.beta, tc.rbl)
		}
	}
}
