package core

import (
	"math"
	"math/rand"
)

// Greedy is the Table II baseline: explore each available network once in
// random order, then always select the network with the highest observed
// average gain (updating that network's average as it goes).
type Greedy struct {
	rng        *rand.Rand
	available  []int
	availSpare []int // retired availability slice, recycled by SetAvailable
	explore    []int // local indices pending exploration
	sumGain    []float64
	cntGain    []int
	cur        int
	switches   int
	last       int
}

var (
	_ Policy         = (*Greedy)(nil)
	_ SwitchReporter = (*Greedy)(nil)
	_ Reinitializer  = (*Greedy)(nil)
)

// NewGreedy constructs a Greedy policy over the given global network ids.
func NewGreedy(available []int, rng *rand.Rand) *Greedy {
	g := &Greedy{}
	g.Reinit(available, rng)
	return g
}

// Reinit implements Reinitializer.
func (g *Greedy) Reinit(available []int, rng *rand.Rand) {
	g.rng = rng
	g.cur, g.last = -1, -1
	g.switches = 0
	g.explore = g.explore[:0]
	g.rebuild(sortedInto(g.available, available), false)
}

// Name implements Policy.
func (g *Greedy) Name() string { return AlgGreedy.String() }

// Available implements Policy.
func (g *Greedy) Available() []int { return g.available }

// Switches implements SwitchReporter.
func (g *Greedy) Switches() int { return g.switches }

// Select implements Policy.
func (g *Greedy) Select() int {
	if len(g.explore) > 0 {
		i := g.rng.Intn(len(g.explore))
		g.cur = g.explore[i]
		g.explore[i] = g.explore[len(g.explore)-1]
		g.explore = g.explore[:len(g.explore)-1]
	} else {
		g.cur = g.bestAverage()
	}
	chosen := g.available[g.cur]
	if g.last >= 0 && chosen != g.last {
		g.switches++
	}
	g.last = chosen
	return chosen
}

// Observe implements Policy.
func (g *Greedy) Observe(gain float64) {
	gain = clamp01(gain)
	g.sumGain[g.cur] += gain
	g.cntGain[g.cur]++
}

// SetAvailable implements Policy. Gain statistics of retained networks are
// kept; newly visible networks are queued for one exploration slot each.
func (g *Greedy) SetAvailable(networks []int) {
	next := sortedInto(g.availSpare, networks)
	g.availSpare = next
	if len(next) == 0 || equalInts(next, g.available) {
		return
	}
	spare := g.available
	g.rebuild(next, true)
	g.availSpare = spare
}

// greedyArm carries one network's gain statistics across an availability
// change.
type greedyArm struct {
	sumGain float64
	cntGain int
	explore bool
}

// rebuild re-indexes the gain statistics for a new availability set,
// matching retained networks by a merge walk (see SmartEXP3.rebuild).
// retain is false on construction, when every network is new.
func (g *Greedy) rebuild(next []int, retain bool) {
	var buf [stackArms]greedyArm
	prior := buf[:0]
	if retain {
		prior = carryBuf(buf[:], len(g.available))
		for li := range prior {
			prior[li].sumGain, prior[li].cntGain = g.sumGain[li], g.cntGain[li]
		}
		for _, li := range g.explore {
			prior[li].explore = true
		}
	}
	var c idCursor
	c.ids = g.available[:len(prior)]
	g.available = next
	g.sumGain = resizeFloats(g.sumGain, len(next))
	g.cntGain = resizeInts(g.cntGain, len(next))
	g.explore = g.explore[:0]
	for li, id := range next {
		lo, hi := c.find(id)
		explore := lo == hi // unseen network: explore it once
		if lo < hi {
			g.sumGain[li] = prior[hi-1].sumGain
			g.cntGain[li] = prior[hi-1].cntGain
			for _, o := range prior[lo:hi] {
				explore = explore || o.explore
			}
		}
		if explore {
			g.explore = append(g.explore, li)
		}
	}
	g.cur = -1
}

func (g *Greedy) bestAverage() int {
	best, bestAvg, ties := 0, math.Inf(-1), 1
	for li := range g.available {
		avg := math.Inf(-1)
		if g.cntGain[li] > 0 {
			avg = g.sumGain[li] / float64(g.cntGain[li])
		}
		switch {
		case li == 0 || avg > bestAvg:
			best, bestAvg, ties = li, avg, 1
		case avg == bestAvg:
			ties++
			if g.rng.Intn(ties) == 0 {
				best = li
			}
		}
	}
	return best
}

// FullInformation is the Table II baseline with full (counterfactual)
// feedback: every slot the device learns the gain it could have obtained
// from each network and applies a multiplicative-weights update on losses
// (György & Ottucsák-style adaptive routing); it then selects a network at
// random according to the weights.
type FullInformation struct {
	rng        *rand.Rand
	available  []int
	availSpare []int // retired availability slice, recycled by SetAvailable
	logW       []float64
	probs      []float64
	slot       int
	cur        int
	switches   int
	last       int
}

var (
	_ Policy              = (*FullInformation)(nil)
	_ FullFeedbackPolicy  = (*FullInformation)(nil)
	_ ProbabilityReporter = (*FullInformation)(nil)
	_ SwitchReporter      = (*FullInformation)(nil)
	_ Reinitializer       = (*FullInformation)(nil)
)

// NewFullInformation constructs the full-feedback baseline.
func NewFullInformation(available []int, rng *rand.Rand) *FullInformation {
	f := &FullInformation{}
	f.Reinit(available, rng)
	return f
}

// Reinit implements Reinitializer.
func (f *FullInformation) Reinit(available []int, rng *rand.Rand) {
	f.rng = rng
	f.cur, f.last = -1, -1
	f.slot, f.switches = 0, 0
	f.rebuildFull(sortedInto(f.available, available), false)
}

// Name implements Policy.
func (f *FullInformation) Name() string { return AlgFullInformation.String() }

// Available implements Policy.
func (f *FullInformation) Available() []int { return f.available }

// Probabilities implements ProbabilityReporter.
func (f *FullInformation) Probabilities() []float64 { return f.probs }

// Switches implements SwitchReporter.
func (f *FullInformation) Switches() int { return f.switches }

// Select implements Policy.
func (f *FullInformation) Select() int {
	f.computeProbs()
	u := f.rng.Float64()
	var acc float64
	f.cur = len(f.available) - 1
	for li, pr := range f.probs {
		acc += pr
		if u < acc {
			f.cur = li
			break
		}
	}
	chosen := f.available[f.cur]
	if f.last >= 0 && chosen != f.last {
		f.switches++
	}
	f.last = chosen
	return chosen
}

// Observe implements Policy. The weight update happens in ObserveAll; this
// only advances the clock.
func (f *FullInformation) Observe(float64) { f.slot++ }

// ObserveAll implements FullFeedbackPolicy: each network's weight is updated
// multiplicatively from its loss 1−gain, with learning rate η(t) = t^{-1/3}.
func (f *FullInformation) ObserveAll(gains []float64) {
	if len(gains) != len(f.available) {
		return
	}
	eta := DecayingGamma(f.slot)
	for li, g := range gains {
		loss := 1 - clamp01(g)
		f.logW[li] -= eta * loss
	}
	maxLog := f.logW[0]
	for _, lw := range f.logW[1:] {
		if lw > maxLog {
			maxLog = lw
		}
	}
	for li := range f.logW {
		f.logW[li] -= maxLog
	}
}

// SetAvailable implements Policy.
func (f *FullInformation) SetAvailable(networks []int) {
	next := sortedInto(f.availSpare, networks)
	f.availSpare = next
	if len(next) == 0 || equalInts(next, f.available) {
		return
	}
	spare := f.available
	f.rebuildFull(next, true)
	f.availSpare = spare
}

// rebuildFull re-indexes the log-weights for a new availability set,
// matching retained networks by a merge walk (see SmartEXP3.rebuild); new
// networks start at log-weight 0. retain is false on construction.
func (f *FullInformation) rebuildFull(next []int, retain bool) {
	var buf [stackArms]float64
	prior := buf[:0]
	if retain {
		prior = carryBuf(buf[:], len(f.available))
		copy(prior, f.logW)
	}
	var c idCursor
	c.ids = f.available[:len(prior)]
	f.available = next
	f.logW = resizeFloats(f.logW, len(next))
	f.probs = resizeFloats(f.probs, len(next))
	for li, id := range next {
		if lo, hi := c.find(id); lo < hi {
			f.logW[li] = prior[hi-1]
		}
		f.probs[li] = 1 / float64(len(next))
	}
	f.cur = -1
}

func (f *FullInformation) computeProbs() {
	maxLog := f.logW[0]
	for _, lw := range f.logW[1:] {
		if lw > maxLog {
			maxLog = lw
		}
	}
	var total float64
	for li, lw := range f.logW {
		f.probs[li] = math.Exp(lw - maxLog)
		total += f.probs[li]
	}
	for li := range f.probs {
		f.probs[li] /= total
	}
}

// FixedRandom is the Table II baseline that picks one network uniformly at
// random and never leaves it (unless the network disappears, in which case
// it picks again among the remaining networks).
type FixedRandom struct {
	rng        *rand.Rand
	available  []int
	availSpare []int // retired availability slice, recycled by SetAvailable
	choice     int   // global id, -1 until first Select
}

var (
	_ Policy        = (*FixedRandom)(nil)
	_ Reinitializer = (*FixedRandom)(nil)
)

// NewFixedRandom constructs the fixed-random baseline.
func NewFixedRandom(available []int, rng *rand.Rand) *FixedRandom {
	r := &FixedRandom{}
	r.Reinit(available, rng)
	return r
}

// Reinit implements Reinitializer.
func (r *FixedRandom) Reinit(available []int, rng *rand.Rand) {
	r.rng = rng
	r.available = sortedInto(r.available, available)
	r.choice = -1
}

// Name implements Policy.
func (r *FixedRandom) Name() string { return AlgFixedRandom.String() }

// Available implements Policy.
func (r *FixedRandom) Available() []int { return r.available }

// Select implements Policy.
func (r *FixedRandom) Select() int {
	if r.choice < 0 {
		r.choice = r.available[r.rng.Intn(len(r.available))]
	}
	return r.choice
}

// Observe implements Policy.
func (r *FixedRandom) Observe(float64) {}

// SetAvailable implements Policy.
func (r *FixedRandom) SetAvailable(networks []int) {
	next := sortedInto(r.availSpare, networks)
	r.availSpare = next
	if len(next) == 0 {
		return
	}
	r.availSpare = r.available
	r.available = next
	if r.choice < 0 {
		return
	}
	for _, id := range next {
		if id == r.choice {
			return
		}
	}
	r.choice = next[r.rng.Intn(len(next))]
}
