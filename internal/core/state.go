package core

import (
	"fmt"
	"math"
	"math/rand"
)

// PolicyState is the complete dynamic state of a SmartEXP3 policy in
// exported, serialization-friendly form (every field is plain data, so a
// codec that writes float64 bits, as serve's snapshot records do, carries
// it exactly). It separates what a
// long-lived decision service must persist from what the simulation engine
// owns: the policy's learned state (weights, block position, greedy and
// reset statistics) is here; the identity (name, feature set, Config) and
// the random source are reconstructed by the host from its own
// configuration.
//
// The contract is byte-identical continuation: ExportState followed by
// ImportState into a policy constructed with the same (features, config)
// and a random source resuming the same stream yields a policy whose
// subsequent Select/Observe trajectory is bit-for-bit the trajectory the
// exported policy would have produced. The state carries only what import
// cannot recompute to the same bits. The Fenwick tree and the running sum
// are incremental sums whose last ulp depends on the order of the updates
// behind them, and the sampling descent compares against those bits, so
// they are captured as-is with the shift they were built under. The
// linear-space weights are exactly exp(LogW[i] − Shift) and γ is exactly
// the schedule at BlockIdx, so ImportState recomputes both. The selection
// distribution is recomputed whenever it is read, except rebuild's
// uniform placeholder (UniformProbs), which no weight determines; it
// decides whether an arm removed before the next block start triggers a
// reset.
type PolicyState struct {
	// Available is the availability set (global network ids, ascending).
	Available []int

	// Weight set (see weightSet): LogW is the source of truth, Tree and
	// SumW its incrementally maintained views under Shift.
	LogW  []float64
	Tree  []float64
	SumW  float64
	Shift float64

	// UniformProbs records that the distribution still reads as uniform
	// 1/k after an availability change, until the next block start or
	// weight update.
	UniformProbs bool

	// Pending initial/post-reset exploration (local indices).
	Explore []int

	// Current block.
	BlockIdx  int
	Cur       int
	SelProb   float64
	BlockLen  int
	SlotIn    int
	BlockGain float64
	Window    []float64
	CurIsSB   bool
	NeedBlock bool

	// Previous block (switch-back state).
	PrevNet    int
	PrevWindow []float64
	PrevWasSB  bool
	PendingSB  int

	// Per-network learning state (local indices).
	X       []int
	SumGain []float64
	CntGain []int
	SlotsOn []int

	// Greedy eligibility.
	CondAFailed       bool
	YThreshold        int
	GreedyWasEligible bool

	// Quality-drop reset.
	DropRef   float64
	DropCount int

	// Counters.
	Resets      int
	Switches    int
	SwitchBacks int
	LastGlobal  int
	TotalSlots  int
}

// ExportState captures the policy's dynamic state into dst, reusing dst's
// slices where capacity allows so periodic snapshots of a warm service do
// not allocate per device.
func (p *SmartEXP3) ExportState(dst *PolicyState) {
	dst.Available = append(dst.Available[:0], p.available...)
	dst.LogW = append(dst.LogW[:0], p.w.logW...)
	dst.Tree = append(dst.Tree[:0], p.w.tree...)
	dst.SumW, dst.Shift = p.w.sumW, p.w.shift
	dst.UniformProbs = p.uniform
	dst.Explore = append(dst.Explore[:0], p.explore...)
	dst.BlockIdx = p.blockIdx
	dst.Cur, dst.SelProb = p.cur, p.selProb
	dst.BlockLen, dst.SlotIn, dst.BlockGain = p.blockLen, p.slotIn, p.blockGain
	dst.Window = append(dst.Window[:0], p.window...)
	dst.CurIsSB, dst.NeedBlock = p.curIsSB, p.needBlock
	dst.PrevNet = p.prevNet
	dst.PrevWindow = append(dst.PrevWindow[:0], p.prevWindow...)
	dst.PrevWasSB, dst.PendingSB = p.prevWasSB, p.pendingSB
	dst.X = append(dst.X[:0], p.x...)
	dst.SumGain = append(dst.SumGain[:0], p.sumGain...)
	dst.CntGain = append(dst.CntGain[:0], p.cntGain...)
	dst.SlotsOn = append(dst.SlotsOn[:0], p.slotsOn...)
	dst.CondAFailed, dst.YThreshold = p.condAFailed, p.yThreshold
	dst.GreedyWasEligible = p.greedyWasEligible
	dst.DropRef, dst.DropCount = p.dropRef, p.dropCount
	dst.Resets, dst.Switches, dst.SwitchBacks = p.resets, p.switches, p.switchBacks
	dst.LastGlobal, dst.TotalSlots = p.lastGlobal, p.totalSlots
}

// Reserve gives the state's slices room for a policy of up to k arms
// under a switch-back window of w gains, carved from one float and one
// int allocation, and discards what they held. Exporting any such policy
// into the state then grows none of them. A host that exports many
// policies through one state, as serve's snapshot capture does, reserves
// it once rather than growing each slice whenever a policy with more arms
// than the last comes by.
func (s *PolicyState) Reserve(k, w int) {
	floats, ints := make([]float64, 3*k+1+2*w), make([]int, 5*k)
	s.LogW, s.Tree = cut(&floats, k), cut(&floats, k+1)
	s.SumGain, s.Window, s.PrevWindow = cut(&floats, k), cut(&floats, w), cut(&floats, w)
	s.Available, s.Explore = cut(&ints, k), cut(&ints, k)
	s.X, s.CntGain, s.SlotsOn = cut(&ints, k), cut(&ints, k), cut(&ints, k)
}

// Validate reports whether the state is internally consistent: every
// per-network slice matches the availability set's length, local indices
// point inside it, a running block has a network, block counts and the
// block index are not negative, and the availability set is strictly
// ascending. A state from a corrupt or hand-edited snapshot fails here
// instead of panicking inside the policy later.
func (s *PolicyState) Validate() error {
	k := len(s.Available)
	if k == 0 {
		return fmt.Errorf("core: policy state has no available networks")
	}
	for i := 1; i < k; i++ {
		if s.Available[i] <= s.Available[i-1] {
			return fmt.Errorf("core: policy state availability not strictly ascending at %d", i)
		}
	}
	for _, n := range []struct {
		name string
		got  int
	}{
		{"LogW", len(s.LogW)}, {"X", len(s.X)}, {"SumGain", len(s.SumGain)},
		{"CntGain", len(s.CntGain)}, {"SlotsOn", len(s.SlotsOn)},
	} {
		if n.got != k {
			return fmt.Errorf("core: policy state %s has %d entries for %d networks", n.name, n.got, k)
		}
	}
	if len(s.Tree) != k+1 {
		return fmt.Errorf("core: policy state Tree has %d entries, want %d", len(s.Tree), k+1)
	}
	for _, idx := range []struct {
		name string
		got  int
		min  int
	}{
		{"Cur", s.Cur, -1}, {"PrevNet", s.PrevNet, -1},
		{"PendingSB", s.PendingSB, -1},
	} {
		if idx.got < idx.min || idx.got >= k {
			return fmt.Errorf("core: policy state %s = %d outside [%d, %d)", idx.name, idx.got, idx.min, k)
		}
	}
	if s.BlockIdx < 0 {
		return fmt.Errorf("core: policy state BlockIdx = %d is negative", s.BlockIdx)
	}
	if !s.NeedBlock && s.Cur < 0 {
		return fmt.Errorf("core: policy state has a running block but no current network")
	}
	for li, x := range s.X {
		if x < 0 {
			return fmt.Errorf("core: policy state X[%d] = %d is negative", li, x)
		}
	}
	for _, li := range s.Explore {
		if li < 0 || li >= k {
			return fmt.Errorf("core: policy state Explore entry %d outside [0, %d)", li, k)
		}
	}
	return nil
}

// ValidateFor is Validate plus the bounds a policy built with cfg keeps
// its state within: neither switch-back window holds more than
// cfg.SwitchBackWindow gains. A longer window no such policy exports; it
// would change the switch-back rule's averages and outgrow the window's
// buffer.
func (s *PolicyState) ValidateFor(cfg Config) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if w := max(len(s.Window), len(s.PrevWindow)); w > cfg.SwitchBackWindow {
		return fmt.Errorf("core: policy state switch-back window has %d gains, the policy keeps at most %d", w, cfg.SwitchBackWindow)
	}
	return nil
}

// ImportState restores a previously exported state, reusing the policy's
// buffers. The policy keeps its identity (name, features, config) and draws
// all future randomness from rng; everything else — weights, block
// position, learning statistics, counters — is overwritten, and the
// linear-space weights and γ are recomputed from LogW, Shift and BlockIdx.
// It fails without modifying the policy if the state
// does not pass ValidateFor under the policy's config.
func (p *SmartEXP3) ImportState(s *PolicyState, rng *rand.Rand) error {
	if err := s.ValidateFor(p.cfg); err != nil {
		return err
	}
	if rng == nil {
		return fmt.Errorf("core: ImportState requires a random source")
	}
	p.rng = rng
	k := len(s.Available)
	p.available = append(p.available[:0], s.Available...)
	p.k = k

	logW := p.w.reset(k)
	copy(logW, s.LogW)
	for i, lw := range logW {
		p.w.wExp[i] = math.Exp(lw - s.Shift)
	}
	copy(p.w.tree, s.Tree)
	p.w.sumW, p.w.shift = s.SumW, s.Shift

	p.uniform = s.UniformProbs
	p.explore = append(p.explore[:0], s.Explore...)

	p.blockIdx, p.gamma = s.BlockIdx, 0
	if s.BlockIdx > 0 {
		p.gamma = clampGamma(p.cfg.Gamma(s.BlockIdx))
	}
	p.cur, p.selProb = s.Cur, s.SelProb
	p.blockLen, p.slotIn, p.blockGain = s.BlockLen, s.SlotIn, s.BlockGain
	if cap(p.window) < p.cfg.SwitchBackWindow {
		p.window = make([]float64, 0, p.cfg.SwitchBackWindow)
		p.prevWindow = make([]float64, 0, p.cfg.SwitchBackWindow)
	}
	p.window = append(p.window[:0], s.Window...)
	p.curIsSB, p.needBlock = s.CurIsSB, s.NeedBlock
	p.prevNet = s.PrevNet
	p.prevWindow = append(p.prevWindow[:0], s.PrevWindow...)
	p.prevWasSB, p.pendingSB = s.PrevWasSB, s.PendingSB

	p.x = resizeInts(p.x, k)
	copy(p.x, s.X)
	p.sumGain = resizeFloats(p.sumGain, k)
	copy(p.sumGain, s.SumGain)
	p.cntGain = resizeInts(p.cntGain, k)
	copy(p.cntGain, s.CntGain)
	p.slotsOn = resizeInts(p.slotsOn, k)
	copy(p.slotsOn, s.SlotsOn)
	p.iMaxLi = p.scanIMax()
	p.maxX = p.scanMaxX()

	p.condAFailed, p.yThreshold = s.CondAFailed, s.YThreshold
	p.greedyWasEligible = s.GreedyWasEligible
	p.dropRef, p.dropCount = s.DropRef, s.DropCount
	p.resets, p.switches, p.switchBacks = s.Resets, s.Switches, s.SwitchBacks
	p.lastGlobal, p.totalSlots = s.LastGlobal, s.TotalSlots
	return nil
}
