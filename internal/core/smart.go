package core

import (
	"math"
	"math/rand"
)

// SmartEXP3 is the engine behind the EXP3 family (Algorithm 1 plus the
// Section V mechanisms). Which mechanisms are active is controlled by
// Features, so the same engine implements EXP3, Block EXP3, Hybrid Block
// EXP3, Smart EXP3 w/o Reset, and full Smart EXP3.
//
// Weights are kept in log space under a lazily refreshed shift (see
// weightSet), which keeps the multiplicative-update rule w ← w·exp(γĝ/k)
// exact and immune to float64 overflow over long horizons while making the
// per-block weight update and the selection draw O(log k) instead of O(k)
// — the Fast EXP3 hot-path structure.
type SmartEXP3 struct {
	name string
	feat Features
	cfg  Config
	rng  *rand.Rand

	available  []int // global network ids, ascending
	availSpare []int // retired availability slice, recycled as the next SetAvailable sort buffer
	k          int

	w     weightSet // arm weights with O(log k) update and draw
	probs []float64 // Probabilities' buffer, sized on its first call; nothing else reads it
	// uniform is rebuild's placeholder: from an availability change until
	// the next block start or weight update the distribution reads as
	// uniform 1/k. It is decision-relevant, since a further SetAvailable
	// in that window judges removed arms against 1/k, so PolicyState
	// carries it.
	uniform bool
	explore []int // local indices pending initial exploration

	// Current block.
	blockIdx  int     // b, counts blocks started (1-based)
	gamma     float64 // γ(b)
	cur       int     // local index of the block's network; -1 before first block
	selProb   float64 // p(b), the probability the block's network was chosen with
	blockLen  int
	slotIn    int // slots observed so far in this block
	blockGain float64
	window    []float64 // trailing ≤SwitchBackWindow slot gains of this block
	curIsSB   bool      // this block is a switch-back block
	needBlock bool

	// Previous block (for switch-back).
	prevNet    int // local index, -1 if none
	prevWindow []float64
	prevWasSB  bool
	pendingSB  int // local index to switch back to next block, -1 if none

	// Per-network learning state (local indices).
	x       []int     // number of blocks in which the network was chosen
	sumGain []float64 // Σ slot gains (greedy statistics)
	cntGain []int     // number of slot observations
	slotsOn []int     // slots spent connected (identifies i_max)
	// iMaxLi is i_max, the lowest local index among the arms with the most
	// slotsOn. It is derived state and not exported: Observe keeps it
	// current, performReset zeroes it with slotsOn, and rebuild and
	// ImportState, which replace slotsOn, rescan it.
	iMaxLi int
	// maxX is the largest x[i], derived and unexported like iMaxLi:
	// startBlock bumps it, performReset zeroes it, and rebuild and
	// ImportState rescan it. While it is below resetX, the first x whose
	// block reaches ResetBlockLength, the periodic reset cannot fire.
	maxX, resetX int

	// Greedy eligibility state.
	condAFailed bool
	yThreshold  int
	// greedyWasEligible records whether the current block was chosen while
	// the greedy coin was available (determines p(b) = p_i/2 vs p_i).
	greedyWasEligible bool

	// Quality-drop reset state.
	dropRef   float64
	dropCount int

	// blockLens is the read-only table of BlockLength(cfg.Beta, x) for
	// small x, shared by every policy with the same β (see blockTable):
	// the schedule is consulted several times per block (start, greedy
	// eligibility, periodic reset), and math.Pow is the hot loop's most
	// expensive call. It survives Reinit.
	blockLens []int

	// Counters.
	resets      int
	switches    int
	switchBacks int
	lastGlobal  int // global id used in the previous slot, -1 initially
	totalSlots  int
}

var (
	_ Policy              = (*SmartEXP3)(nil)
	_ ProbabilityReporter = (*SmartEXP3)(nil)
	_ ResetReporter       = (*SmartEXP3)(nil)
	_ SwitchReporter      = (*SmartEXP3)(nil)
	_ Reinitializer       = (*SmartEXP3)(nil)
)

// NewSmartEXP3 constructs the engine with an explicit feature set. Most
// callers should use New with one of the named algorithms instead; this
// constructor exists for ablation studies. The per-arm state is carved
// from one float and one int allocation sized exactly to the arm set (see
// InitSmartEXP3).
func NewSmartEXP3(name string, feat Features, available []int, cfg Config, rng *rand.Rand) *SmartEXP3 {
	nf, ni := SmartEXP3Storage(len(available), cfg)
	p := new(SmartEXP3)
	InitSmartEXP3(p, name, feat, available, cfg, rng, make([]float64, nf), make([]int, ni))
	return p
}

// SmartEXP3Storage returns how many float64s and ints hold the per-arm
// state of a policy with room for k arms: three weight views (the
// Fenwick tree has k+1 entries), the gain sums and the two switch-back
// windows; then the availability set, the exploration list and the three
// per-arm counters. k more ints also hold the buffer SetAvailable sorts
// into, which is otherwise allocated at the first availability change: a
// host whose arm sets churn provides them, a simulation whose devices
// never move need not.
func SmartEXP3Storage(k int, cfg Config) (floats, ints int) {
	return 4*k + 1 + 2*cfg.SwitchBackWindow, 5 * k
}

// InitSmartEXP3 is NewSmartEXP3 over memory the caller owns. It builds the
// policy at p, discarding whatever p held, and carves the per-arm state
// from floats and ints with room for the most arms both hold (see
// SmartEXP3Storage). A host that keeps many policies can embed each one
// and its storage in a single record, so a policy costs one allocation, or
// none when the record is reused. An arm set larger than the room grows
// its slices on the heap, as Reinit does. The policy keeps pointers into
// floats and ints: they must outlive it, nothing else may write them, and
// a record that embeds them must not be copied afterwards.
func InitSmartEXP3(p *SmartEXP3, name string, feat Features, available []int, cfg Config, rng *rand.Rand, floats []float64, ints []int) {
	*p = SmartEXP3{name: name, feat: feat, cfg: cfg, blockLens: blockTable(cfg.Beta)}
	p.resetX = firstAtLeast(p.blockLens, cfg.ResetBlockLength)
	p.carve(floats, ints)
	p.Reinit(available, rng)
}

// carve points every per-arm slice at its own region of floats or ints,
// each with room for n arms, n the most both hold; SetAvailable's sort
// buffer gets a region only if ints has n more. A region's capacity ends
// where the next begins, so a slice that outgrows it copies out instead of
// writing into a neighbour. With no room for one arm nothing is carved,
// and the slices start on the heap.
func (p *SmartEXP3) carve(floats []float64, ints []int) {
	w := p.cfg.SwitchBackWindow
	n := min(len(ints)/5, (len(floats)-1-2*w)/4)
	if n < 1 {
		return
	}
	p.w.logW, p.w.wExp, p.w.tree = cut(&floats, n), cut(&floats, n), cut(&floats, n+1)
	p.sumGain = cut(&floats, n)
	p.window, p.prevWindow = cut(&floats, w), cut(&floats, w)
	p.available, p.explore = cut(&ints, n), cut(&ints, n)
	p.x, p.cntGain, p.slotsOn = cut(&ints, n), cut(&ints, n), cut(&ints, n)
	if len(ints) >= n {
		p.availSpare = cut(&ints, n)
	}
}

// cut returns an empty slice with room for the next n elements of *arena
// and advances *arena past them.
func cut[T any](arena *[]T, n int) []T {
	s := (*arena)[:0:n]
	*arena = (*arena)[n:]
	return s
}

// Reinit implements Reinitializer: every field except the identity (name,
// features, config) is returned to its constructor state and the per-network
// state is rebuilt over the given availability set, reusing all buffers.
func (p *SmartEXP3) Reinit(available []int, rng *rand.Rand) {
	p.rng = rng
	p.cur, p.prevNet, p.pendingSB, p.lastGlobal = -1, -1, -1, -1
	p.needBlock = true
	p.blockIdx, p.blockLen, p.slotIn = 0, 0, 0
	p.gamma, p.selProb, p.blockGain = 0, 0, 0
	// Pre-size the trailing windows so pooled reuse reaches its steady
	// state immediately instead of growing capacity whenever one run's
	// randomness explores a new maximum.
	if cap(p.window) < p.cfg.SwitchBackWindow {
		p.window = make([]float64, 0, p.cfg.SwitchBackWindow)
		p.prevWindow = make([]float64, 0, p.cfg.SwitchBackWindow)
	}
	p.window = p.window[:0]
	p.prevWindow = p.prevWindow[:0]
	p.curIsSB, p.prevWasSB = false, false
	p.explore = p.explore[:0]
	p.condAFailed, p.greedyWasEligible = false, false
	p.yThreshold = 0
	p.dropRef, p.dropCount = 0, 0
	p.resets, p.switches, p.switchBacks, p.totalSlots = 0, 0, 0, 0
	p.rebuild(sortedInto(p.available, available), false)
}

// Name implements Policy.
func (p *SmartEXP3) Name() string { return p.name }

// Available implements Policy.
func (p *SmartEXP3) Available() []int { return p.available }

// Probabilities implements ProbabilityReporter. It returns the selection
// distribution under the current weights (uniform before the first block),
// computed afresh into a buffer the next call overwrites.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) Probabilities() []float64 {
	if cap(p.probs) < p.k {
		//repolint:ignore allocfree the buffer is sized on the first call and again only when the arm count reaches a new maximum
		p.probs = make([]float64, p.k)
	}
	p.probs = p.probs[:p.k]
	for li := range p.probs {
		p.probs[li] = p.armProb(li)
	}
	return p.probs
}

// extrema returns the selection distribution's argmax (the lowest index on
// ties), max and min: (0, 1/k, 1/k) under rebuild's uniform placeholder,
// otherwise those of the bits armProb returns. The greedy-eligibility
// check reads them at every main block start, the periodic reset check
// once a block can reach ResetBlockLength.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) extrema() (argmax int, maxP, minP float64) {
	if p.uniform {
		u := 1 / float64(p.k)
		return 0, u, u
	}
	return p.w.extrema(p.gamma)
}

// armProb returns the selection probability of one arm in O(1), without
// materializing the whole distribution: 1/k under rebuild's placeholder,
// otherwise p_i = (1−γ)·w_i/Σw + γ/k.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) armProb(li int) float64 {
	if p.uniform {
		return 1 / float64(p.k)
	}
	return p.w.prob(li, p.gamma)
}

// Resets implements ResetReporter.
func (p *SmartEXP3) Resets() int { return p.resets }

// Switches implements SwitchReporter.
func (p *SmartEXP3) Switches() int { return p.switches }

// SwitchBacks returns how many switch-back blocks the policy has executed.
func (p *SmartEXP3) SwitchBacks() int { return p.switchBacks }

// Select implements Policy.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) Select() int {
	if p.needBlock {
		p.startBlock()
	}
	chosen := p.available[p.cur]
	if p.lastGlobal >= 0 && chosen != p.lastGlobal {
		p.switches++
	}
	p.lastGlobal = chosen
	return chosen
}

// Observe implements Policy.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (p *SmartEXP3) Observe(gain float64) {
	gain = clamp01(gain)
	p.totalSlots++
	p.slotsOn[p.cur]++
	if on, top := p.slotsOn[p.cur], p.slotsOn[p.iMaxLi]; on > top || on == top && p.cur < p.iMaxLi {
		p.iMaxLi = p.cur
	}
	p.sumGain[p.cur] += gain
	p.cntGain[p.cur]++
	p.blockGain += gain
	// Trailing-window update by copy-shift: reslicing the head off would
	// erode the buffer's capacity and force a reallocation every few blocks.
	if len(p.window) < p.cfg.SwitchBackWindow {
		//repolint:ignore allocfree append is bounded by SwitchBackWindow into a buffer Reinit pre-sizes to that capacity, so it never grows the backing array
		p.window = append(p.window, gain)
	} else {
		copy(p.window, p.window[1:])
		p.window[len(p.window)-1] = gain
	}
	p.slotIn++

	if p.feat.Reset && p.checkQualityDrop(gain) {
		p.endBlock()
		p.performReset()
		return
	}

	// Switch-back is evaluated after the first slot of a block: if the new
	// network performed worse than the previous block's network, abandon the
	// block (it lasted a single slot) and spend the next block back on the
	// previous network.
	if p.feat.SwitchBack && p.slotIn == 1 && p.switchBackTriggers(gain) {
		p.pendingSB = p.prevNet
		p.endBlock()
		return
	}

	if p.slotIn >= p.blockLen {
		p.endBlock()
	}
}

// SetAvailable implements Policy. Retained networks keep their learned
// state. With NetworkChange, discovering a network or losing one the
// policy selects with probability ≥ ResetProbability resets the policy, as
// Section V prescribes. The change is classified and re-indexed by merge
// walks over the two ascending id lists, so it builds no map and, up to
// stackArms arms, allocates nothing.
//
//repolint:allocfree via TestSmartEXP3SetAvailableWarmAllocs
func (p *SmartEXP3) SetAvailable(networks []int) {
	// Sort into the retired availability buffer instead of allocating: a
	// device that changes service area every slot (mobility churn) calls
	// this on every area change, and the two buffers simply ping-pong.
	next := sortedInto(p.availSpare, networks)
	p.availSpare = next
	if len(next) == 0 || equalInts(next, p.available) {
		return
	}

	// Does a high-probability network disappear? (Smart EXP3 resets then.)
	// A repeated id is judged by its last position, whose state is the one
	// that would have carried over.
	highProbRemoved, curGone := false, false
	var kept idCursor
	kept.ids = next
	for li, id := range p.available {
		if lo, hi := kept.find(id); lo < hi {
			continue
		}
		curGone = curGone || li == p.cur
		if (li+1 == p.k || p.available[li+1] != id) && p.armProb(li) >= p.cfg.ResetProbability {
			highProbRemoved = true
		}
	}
	// A network is added when an incoming id is new. A repeated incoming id
	// counts as added too, as it always has.
	added := false
	var had idCursor
	had.ids = p.available
	for j, id := range next {
		if lo, hi := had.find(id); lo == hi || j > 0 && next[j-1] == id {
			added = true
			break
		}
	}
	needReset := p.feat.NetworkChange && (added || highProbRemoved)

	// Close the running block before re-indexing when it cannot continue:
	// either its network vanished ("Smart EXP3 resets the block") or a
	// reset will force exploration at the next slot. Closing first also
	// lets the weight update land before new networks are seeded with the
	// maximum weight.
	if !p.needBlock && p.cur >= 0 && (curGone || needReset) {
		if p.slotIn > 0 {
			p.endBlock()
		} else {
			p.needBlock = true
		}
	}

	spare := p.available
	p.rebuild(next, true)
	p.availSpare = spare

	if needReset {
		p.needBlock = true
		p.performReset()
	}
}

// netState carries one network's learning state across an availability
// change.
type netState struct {
	logW    float64
	x       int
	sumGain float64
	cntGain int
	slotsOn int
	explore bool // pending initial or post-reset exploration
}

// rebuild re-indexes all per-network state for a new availability set.
// retain is false on construction, when nothing carries over. Otherwise
// the outgoing state is copied into a call-local array (on the stack up to
// stackArms arms) and matched to next by a merge walk, so retained networks
// keep their state. Newly discovered networks are seeded with the maximum
// retained weight (weight 1, i.e. log 0, if nothing is retained), as
// Section III prescribes, so they are likely to be explored.
//
//repolint:allocfree via TestSmartEXP3SetAvailableWarmAllocs
func (p *SmartEXP3) rebuild(next []int, retain bool) {
	// On construction next may share the outgoing slice's array (and cur,
	// prevNet and pendingSB are -1), so the outgoing ids are read only when
	// state is retained.
	old := p.available
	curID, prevID, pendID := idAt(old, p.cur), idAt(old, p.prevNet), idAt(old, p.pendingSB)
	var buf [stackArms]netState
	prior := buf[:0]
	if retain {
		prior = carryBuf(buf[:], len(old))
		for li := range old {
			s := &prior[li]
			s.logW, s.x = p.w.logW[li], p.x[li]
			s.sumGain, s.cntGain, s.slotsOn = p.sumGain[li], p.cntGain[li], p.slotsOn[li]
		}
		for _, li := range p.explore {
			prior[li].explore = true
		}
	}
	var c idCursor
	c.ids = old[:len(prior)]
	maxRetained := math.Inf(-1)
	for _, id := range next {
		if lo, hi := c.find(id); lo < hi && prior[hi-1].logW > maxRetained {
			maxRetained = prior[hi-1].logW
		}
	}
	if math.IsInf(maxRetained, -1) {
		maxRetained = 0 // all networks are new: weight 1
	}

	k := len(next)
	p.available = next
	p.k = k
	logW := p.w.reset(k)
	p.x = resizeInts(p.x, k)
	p.sumGain = resizeFloats(p.sumGain, k)
	p.cntGain = resizeInts(p.cntGain, k)
	p.slotsOn = resizeInts(p.slotsOn, k)
	p.explore = p.explore[:0]

	c.i = 0 // second walk over the same outgoing ids
	for li, id := range next {
		lo, hi := c.find(id)
		explore := lo == hi // a new network; on construction, every one
		if lo < hi {
			s := &prior[hi-1]
			logW[li] = s.logW
			p.x[li] = s.x
			p.sumGain[li] = s.sumGain
			p.cntGain[li] = s.cntGain
			p.slotsOn[li] = s.slotsOn
			for _, o := range prior[lo:hi] {
				explore = explore || o.explore
			}
		} else {
			logW[li] = maxRetained
		}
		if p.feat.ExploreFirst && explore {
			//repolint:ignore allocfree explore holds at most one entry per arm and keeps its capacity, so it grows only when the arm count reaches a new maximum
			p.explore = append(p.explore, li)
		}
	}
	p.w.reshift()
	p.iMaxLi = p.scanIMax()
	p.maxX = p.scanMaxX()
	// The distribution reads as uniform until the next block start.
	p.uniform = true

	p.cur = p.local(curID)
	p.prevNet = p.local(prevID)
	p.pendingSB = p.local(pendID)
	if p.cur < 0 {
		p.needBlock = true
	}
}

// idAt returns the global id at local index li, or -1 when li is outside
// ids (-1 marks "no network").
func idAt(ids []int, li int) int {
	if li < 0 || li >= len(ids) {
		return -1
	}
	return ids[li]
}

// local returns the local index of global id by binary search on the
// ascending availability set (the last position should the set repeat
// the id), or -1 when it is absent. Negative ids are never found: -1
// marks "no network" in cur, prevNet and pendingSB, and re-indexing has
// always treated every negative id that way.
func (p *SmartEXP3) local(id int) int {
	if id < 0 {
		return -1
	}
	lo, hi := 0, len(p.available)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.available[m] <= id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo > 0 && p.available[lo-1] == id {
		return lo - 1
	}
	return -1
}

// startBlock begins block b: update the distribution, apply the periodic
// reset check, and choose the block's network (lines 2–9 of Algorithm 1 plus
// switch-back scheduling).
func (p *SmartEXP3) startBlock() {
	p.blockIdx++
	p.gamma = clampGamma(p.cfg.Gamma(p.blockIdx))
	p.uniform = false // γ moved, which ends rebuild's placeholder

	if p.feat.Reset && p.periodicResetDue() {
		p.performReset()
	}

	switch {
	case p.pendingSB >= 0:
		// Switch-back block: deterministically return to the previous
		// network; p(b) = 1.
		p.cur = p.pendingSB
		p.selProb = 1
		p.curIsSB = true
		p.switchBacks++
	case p.feat.ExploreFirst && len(p.explore) > 0:
		// Initial exploration: visit unexplored networks in random order;
		// p(b) = 1/|explore_network|.
		i := p.rng.Intn(len(p.explore))
		p.cur = p.explore[i]
		p.explore[i] = p.explore[len(p.explore)-1]
		p.explore = p.explore[:len(p.explore)-1]
		p.selProb = 1 / float64(len(p.explore)+1)
		p.curIsSB = false
	default:
		p.chooseMainBlock()
	}
	p.pendingSB = -1

	p.blockLen = 1
	if p.feat.Blocking {
		p.blockLen = p.blockLength(p.x[p.cur])
	}
	p.x[p.cur]++
	if p.x[p.cur] > p.maxX {
		p.maxX = p.x[p.cur]
	}
	p.blockGain = 0
	p.slotIn = 0
	p.window = p.window[:0]
	p.needBlock = false
}

// chooseMainBlock performs the greedy-or-random choice of lines 6–8.
func (p *SmartEXP3) chooseMainBlock() {
	p.curIsSB = false
	greedyPhase := p.feat.Greedy && p.greedyEligible()
	p.greedyWasEligible = greedyPhase
	if greedyPhase && p.rng.Float64() < 0.5 {
		p.cur = p.bestAverageGain()
		p.selProb = 0.5
		return
	}
	p.cur = p.sampleProbs()
	if greedyPhase {
		// Random choice while the greedy coin was available: p(b) = p_i(b)/2.
		p.selProb = p.armProb(p.cur) / 2
	} else {
		p.selProb = p.armProb(p.cur)
	}
}

// greedyEligible evaluates the Section V conditions: (a) the distribution is
// still near-uniform, max(p) − min(p) ≤ 1/(k−1); or (b) the most probable
// network's block length has not yet regrown past y, where y is l_{i+} at
// the moment condition (a) first failed. Condition (b) re-enables greedy
// after a reset shrinks block lengths.
func (p *SmartEXP3) greedyEligible() bool {
	if p.k < 2 {
		return false
	}
	iPlus, maxP, minP := p.extrema()
	lenPlus := p.blockLength(p.x[iPlus])
	condA := maxP-minP <= 1/float64(p.k-1)
	if !condA && !p.condAFailed {
		p.condAFailed = true
		p.yThreshold = lenPlus
	}
	if condA {
		return true
	}
	return p.condAFailed && lenPlus < p.yThreshold
}

// bestAverageGain returns the network with the highest observed per-slot
// average gain, breaking ties uniformly at random. Unobserved networks rank
// lowest.
func (p *SmartEXP3) bestAverageGain() int {
	best := -1
	bestAvg := math.Inf(-1)
	ties := 1
	for li := 0; li < p.k; li++ {
		avg := math.Inf(-1)
		if p.cntGain[li] > 0 {
			avg = p.sumGain[li] / float64(p.cntGain[li])
		}
		switch {
		case best < 0 || avg > bestAvg:
			best, bestAvg, ties = li, avg, 1
		case avg == bestAvg:
			ties++
			if p.rng.Intn(ties) == 0 {
				best = li
			}
		}
	}
	return best
}

// switchBackTriggers applies the Section V rule after the first slot of a
// block: switch back if the new network's gain is worse than the previous
// block's average or last-slot gain, or if more than half the (trailing ≤8)
// slots of the previous block beat it — unless the previous block was itself
// a switch-back (no ping-pong) or this block already is one.
func (p *SmartEXP3) switchBackTriggers(gain float64) bool {
	if p.curIsSB || p.prevWasSB || p.pendingSB >= 0 {
		return false
	}
	if p.prevNet < 0 || p.prevNet == p.cur || len(p.prevWindow) == 0 {
		return false
	}
	var sum float64
	higher := 0
	for _, g := range p.prevWindow {
		sum += g
		if g > gain {
			higher++
		}
	}
	avg := sum / float64(len(p.prevWindow))
	last := p.prevWindow[len(p.prevWindow)-1]
	return gain < avg || gain < last || higher*2 > len(p.prevWindow)
}

// checkQualityDrop implements the drop-based reset trigger: the device is on
// its most-selected network and observes gains at least DropFraction below
// that network's historical average for more than DropSlots consecutive
// slots. The reference average is frozen when the drop starts so that the
// drop itself cannot mask the decline.
func (p *SmartEXP3) checkQualityDrop(gain float64) bool {
	if p.cntGain[p.cur] < 2 || p.cntGain[p.cur] <= p.cfg.MinDropObservations ||
		p.cur != p.iMaxLi {
		p.dropCount = 0
		return false
	}
	if p.dropCount == 0 {
		n := float64(p.cntGain[p.cur] - 1)
		p.dropRef = (p.sumGain[p.cur] - gain) / n
	}
	if p.dropRef > 0 && gain < (1-p.cfg.DropFraction)*p.dropRef {
		p.dropCount++
		if p.dropCount > p.cfg.DropSlots {
			p.dropCount = 0
			return true
		}
		return false
	}
	p.dropCount = 0
	return false
}

// blockLength returns BlockLength(cfg.Beta, x), from the shared table while
// x is inside it. Validate refuses negative counts, but an imported count
// near MaxInt can still overflow, so a negative x is computed, not indexed.
func (p *SmartEXP3) blockLength(x int) int {
	if uint(x) < uint(len(p.blockLens)) {
		return p.blockLens[x]
	}
	return BlockLength(p.cfg.Beta, x)
}

// scanIMax returns the network the device has been connected to for the
// most slots (i_max in Section V; the lowest index on ties) by a scan of
// slotsOn. Observe maintains the same answer incrementally in iMaxLi.
func (p *SmartEXP3) scanIMax() int {
	best, bestSlots := 0, p.slotsOn[0]
	for li := 1; li < p.k; li++ {
		if p.slotsOn[li] > bestSlots {
			best, bestSlots = li, p.slotsOn[li]
		}
	}
	return best
}

// scanMaxX returns the largest x[i] by a scan; startBlock maintains the
// same answer incrementally in maxX.
func (p *SmartEXP3) scanMaxX() int {
	m := 0
	for _, x := range p.x {
		if x > m {
			m = x
		}
	}
	return m
}

// periodicResetDue reports whether the periodic reset condition holds:
// p_{i+} ≥ ResetProbability and l_{i+} ≥ ResetBlockLength. While every
// x[i] is below resetX no arm's block reaches ResetBlockLength, whatever
// the distribution, so the answer is false without the O(k) extrema scan.
// At the paper's β = 0.1 a 200-slot run never gets that far.
func (p *SmartEXP3) periodicResetDue() bool {
	if p.maxX < p.resetX {
		return false
	}
	iPlus, maxP, _ := p.extrema()
	return maxP >= p.cfg.ResetProbability &&
		p.blockLength(p.x[iPlus]) >= p.cfg.ResetBlockLength
}

// performReset applies the minimal reset: block lengths and the statistics
// behind greedy selection are cleared and exploration is forced, but the
// learned weights are kept.
func (p *SmartEXP3) performReset() {
	p.resets++
	for li := 0; li < p.k; li++ {
		p.x[li] = 0
		p.sumGain[li] = 0
		p.cntGain[li] = 0
		p.slotsOn[li] = 0
	}
	p.iMaxLi, p.maxX = 0, 0
	p.dropCount = 0
	p.pendingSB = -1
	p.prevNet = -1
	p.prevWindow = p.prevWindow[:0]
	p.prevWasSB = false
	if p.feat.ExploreFirst {
		p.explore = p.explore[:0]
		for li := 0; li < p.k; li++ {
			p.explore = append(p.explore, li)
		}
	}
}

// endBlock closes the current block: estimated-gain weight update (lines
// 10–12 of Algorithm 1) and bookkeeping for switch-back. The update touches
// one arm, so it costs O(log k) — no full renormalization (see weightSet).
func (p *SmartEXP3) endBlock() {
	if p.selProb > 0 {
		ghat := p.blockGain / p.selProb
		p.w.bump(p.cur, p.gamma*ghat/float64(p.k))
		p.uniform = false
	}
	p.prevNet = p.cur
	p.prevWindow = append(p.prevWindow[:0], p.window...)
	p.prevWasSB = p.curIsSB
	p.curIsSB = false
	p.needBlock = true
}

// sampleProbs draws a local index from the block-start distribution by
// mixture decomposition (Fast EXP3): with probability γ an O(1) uniform
// exploration draw, otherwise an O(log k) weight-proportional draw.
func (p *SmartEXP3) sampleProbs() int {
	if p.rng.Float64() < p.gamma {
		return p.rng.Intn(p.k)
	}
	return p.w.sample(p.rng)
}

func clampGamma(g float64) float64 {
	if g <= 0 || math.IsNaN(g) {
		return 1e-9
	}
	if g > 1 {
		return 1
	}
	return g
}
