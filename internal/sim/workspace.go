package sim

import (
	"fmt"
	"math"
	"math/rand"

	"smartexp3/internal/core"
	"smartexp3/internal/dist"
	"smartexp3/internal/game"
	"smartexp3/internal/rngutil"
)

// Workspace holds every piece of mutable state one replication touches:
// per-device RNG streams, policies, presence and area tracking, the per-slot
// choice/occupancy/bitrate vectors, the epoch-scoped NE cache, the batched
// delay-sampling buffers, and the stability recorders. A workspace is reset
// and reused across replications — after the first run of a batch the slot
// loop performs no heap allocation beyond the Result it returns — which is
// what makes a Monte Carlo batch cheap: one workspace per worker, reused for
// the worker's whole batch.
//
// A workspace belongs to the engine that created it and must only be used by
// one goroutine at a time. Reuse never leaks state between runs: reset
// returns every field to its initial value and policies are reinitialized
// through core.Reinitializer, so engine.Run(ws, seed) is a pure function of
// (engine, seed).
type Workspace struct {
	eng *Engine

	policies []core.Policy              // active policy per device; nil while inactive
	spare    []core.Policy              // pooled policy objects reused across joins/runs
	fullPols []core.FullFeedbackPolicy  // cached assertion; nil when not full-feedback
	probPols []core.ProbabilityReporter // cached assertion; nil when not a reporter
	rngs     []*rand.Rand               // per-device stream (policy + delay + noise)
	srcs     []*rngutil.Source          // the sources behind rngs, reseeded in place each run
	seeds    []int64                    // reseeding scratch
	areas    []int                      // current area per device
	trajPos  []int                      // index of the device's last applied trajectory stay
	active   []bool
	choices  []int // current slot's network per device (-1 inactive)
	lastNet  []int // previous slot's network per device (-1 none)

	// Epoch-scoped NE cache. prepared points at neCache when an epoch is
	// prepared and is nil otherwise; neCache's buffers persist across epochs
	// and replications, so refreshing the NE on churn allocates nothing
	// after the workspace's first epoch (game.PrepareInto).
	activeList []int // device ids active this epoch, ascending
	idxOf      []int // device id → index in activeList, -1 when inactive
	instance   game.Instance
	neCache    game.PreparedNE
	prepared   *game.PreparedNE
	distEval   *game.DistanceEval
	coordNets  []int              // centralized coordinator's assignment (per device id)
	seedBuf    []int              // coordinator churn seeding scratch
	coordSolve game.AssignScratch // coordinator NE solve buffers

	// Per-slot scratch.
	counts    []int
	bitrates  []float64
	delays    []float64 // sampled switching delay per device this slot
	gains     []float64 // active-device gains, activeList order
	assign    []int     // active-device choices, activeList order
	memberIdx []int     // group-distance member indices scratch
	cfGains   []float64 // counterfactual gains scratch

	// Batched switching-delay sampling: switchers are partitioned by target
	// technology and sampled with one dist.SampleInto call per technology.
	wifiDevs, cellDevs []int
	wifiRngs, cellRngs []*rand.Rand
	wifiBuf, cellBuf   []float64

	// Distance fast path: when no device switched since the previous slot
	// of the same epoch (and rates are noise-free), every bitrate — and
	// therefore the whole Definition 3 evaluation — is unchanged, so the
	// cached slot metrics are replayed instead of recomputed. Converged
	// populations hit this on almost every slot.
	distCacheOK  bool
	prevAssign   []int
	prevAtNE     bool
	prevEpsHit   bool
	prevDist     float64
	prevGroupSet []bool
	prevGroup    []float64

	// Stability recording.
	argmaxRec [][]int
	probRec   [][]float64

	res        *Result
	atNESlots  int
	atEpsSlots int
	distSlots  int
}

// NewWorkspace allocates a workspace sized for the engine's configuration.
// The first Run through a workspace performs the one-time allocations
// (policies, RNG streams, recorders); subsequent runs reuse all of them.
func (e *Engine) NewWorkspace() *Workspace {
	n := e.nDevices
	ws := &Workspace{
		eng:       e,
		policies:  make([]core.Policy, n),
		spare:     make([]core.Policy, n),
		fullPols:  make([]core.FullFeedbackPolicy, n),
		probPols:  make([]core.ProbabilityReporter, n),
		rngs:      make([]*rand.Rand, n),
		srcs:      make([]*rngutil.Source, n),
		seeds:     make([]int64, n),
		areas:     make([]int, n),
		trajPos:   make([]int, n),
		active:    make([]bool, n),
		choices:   make([]int, n),
		lastNet:   make([]int, n),
		idxOf:     make([]int, n),
		coordNets: make([]int, n),
		counts:    make([]int, e.nNetworks),
		bitrates:  make([]float64, n),
		delays:    make([]float64, n),
	}
	ws.prevGroup = make([]float64, len(e.cfg.DeviceGroups))
	ws.prevGroupSet = make([]bool, len(e.cfg.DeviceGroups))
	if e.cfg.Collect.Probabilities {
		ws.argmaxRec = make([][]int, n)
		ws.probRec = make([][]float64, n)
		for d := range ws.argmaxRec {
			ws.argmaxRec[d] = make([]int, 0, e.cfg.Slots)
			ws.probRec[d] = make([]float64, 0, e.cfg.Slots)
		}
	}
	return ws
}

// reset prepares the workspace for a fresh replication: every per-device
// stream is reseeded from (seed, device), all tracking state returns to its
// initial value, and a new Result is allocated (the Result is the one object
// a run must hand over to the caller; everything else is reused).
func (ws *Workspace) reset(seed int64) {
	e := ws.eng
	cfg := &e.cfg
	n := e.nDevices
	if ws.srcs[0] == nil {
		// Every source gets its ring here, in one allocation, so a draw in a
		// later run never allocates one.
		pool := rngutil.NewSources(n)
		for d := range pool {
			ws.srcs[d] = &pool[d]
			ws.rngs[d] = rand.New(ws.srcs[d])
		}
	}
	// Reseed every device stream. A Seed is O(1): a device's first 333
	// draws are computed from its seed, and its 334th refills the ring.
	for d := 0; d < n; d++ {
		ws.seeds[d] = rngutil.ChildSeed(seed, int64(d))
	}
	rngutil.SeedAll(ws.srcs, ws.seeds)
	for d := 0; d < n; d++ {
		if ws.policies[d] != nil {
			ws.spare[d] = ws.policies[d]
			ws.policies[d] = nil
		}
		ws.fullPols[d] = nil
		ws.probPols[d] = nil
		ws.areas[d] = -1
		ws.trajPos[d] = -1
		ws.active[d] = false
		ws.choices[d] = -1
		ws.lastNet[d] = -1
		ws.coordNets[d] = -1
		ws.idxOf[d] = -1
	}
	ws.activeList = ws.activeList[:0]
	ws.prepared = nil // distEval is retargeted per epoch, keep its buffers
	ws.distCacheOK = false
	ws.atNESlots, ws.atEpsSlots, ws.distSlots = 0, 0, 0
	if cfg.Collect.Probabilities {
		for d := range ws.argmaxRec {
			ws.argmaxRec[d] = ws.argmaxRec[d][:0]
			ws.probRec[d] = ws.probRec[d][:0]
		}
	}

	ws.res = &Result{
		Slots:       cfg.Slots,
		SlotSeconds: cfg.SlotSeconds,
		Devices:     make([]DeviceResult, n),
	}
	for d, spec := range cfg.Devices {
		ws.res.Devices[d] = DeviceResult{
			Algorithm:         spec.Algorithm,
			Join:              spec.Join,
			Leave:             e.leaves[d],
			PresentThroughout: spec.Join == 0 && e.leaves[d] >= cfg.Slots,
			StableFrom:        -1,
		}
		if cfg.Collect.Selections {
			ws.res.Devices[d].Selections = filledInts(cfg.Slots, -1)
		}
		if cfg.Collect.Bitrates {
			ws.res.Devices[d].BitrateMbps = filledFloats(cfg.Slots, -1)
		}
	}
	if cfg.Collect.Distance {
		ws.res.Distance = make([]float64, cfg.Slots)
		ws.res.GroupDistance = make([][]float64, len(cfg.DeviceGroups))
		for g := range ws.res.GroupDistance {
			ws.res.GroupDistance[g] = make([]float64, cfg.Slots)
		}
	}
}

// takeResult detaches the finished Result from the workspace so the next
// reset cannot touch what the caller received.
func (ws *Workspace) takeResult() *Result {
	res := ws.res
	ws.res = nil
	return res
}

// beginSlot updates device presence and availability, (re)initializes
// policies for devices that just joined, and refreshes the NE cache on epoch
// changes. Slots at which no device can join, leave or move — precomputed in
// the engine's epoch schedule — skip the scan entirely.
func (ws *Workspace) beginSlot(t int) error {
	e := ws.eng
	if t > 0 && !e.changeSlot[t] {
		return nil
	}
	changed := false
	for d := range e.cfg.Devices {
		spec := &e.cfg.Devices[d]
		nowActive := t >= spec.Join && t < e.leaves[d]
		area := ws.advanceArea(d, t)
		if nowActive != ws.active[d] {
			changed = true
		}
		if nowActive && area != ws.areas[d] {
			changed = true
		}
		switch {
		case nowActive && !ws.active[d]:
			if !e.centralized {
				if err := ws.installPolicy(d, spec, e.cfg.Topology.Areas[area]); err != nil {
					return err
				}
			}
			ws.lastNet[d] = -1
		case nowActive && area != ws.areas[d] && ws.areas[d] >= 0:
			if !e.centralized {
				ws.policies[d].SetAvailable(e.cfg.Topology.Areas[area])
			}
		case !nowActive && ws.active[d]:
			// Capture policy-side counters before releasing the policy; the
			// object itself goes back to the per-device pool for reuse.
			if p, ok := ws.policies[d].(core.ResetReporter); ok {
				ws.res.Devices[d].Resets = p.Resets()
			}
			if e.cfg.PolicyFactory == nil {
				ws.spare[d] = ws.policies[d]
			}
			ws.policies[d] = nil
			ws.fullPols[d] = nil
			ws.probPols[d] = nil
			ws.lastNet[d] = -1
		}
		ws.active[d] = nowActive
		if nowActive {
			ws.areas[d] = area
		}
	}
	if changed || ws.prepared == nil {
		return ws.refreshEpoch()
	}
	return nil
}

// advanceArea returns device d's area at slot t, advancing the trajectory
// cursor. Trajectories list stays in FromSlot order, so the cursor only ever
// moves forward; the scan the old runner did per slot is amortized O(1).
func (ws *Workspace) advanceArea(d, t int) int {
	traj := ws.eng.cfg.Devices[d].Trajectory
	for ws.trajPos[d]+1 < len(traj) && traj[ws.trajPos[d]+1].FromSlot <= t {
		ws.trajPos[d]++
	}
	if ws.trajPos[d] >= 0 {
		return traj[ws.trajPos[d]].Area
	}
	return 0
}

// installPolicy places a ready-to-run policy for a joining device: the
// configured factory when set, otherwise the device's pooled policy
// reinitialized in place, otherwise a newly constructed one (first join of
// this workspace).
func (ws *Workspace) installPolicy(d int, spec *DeviceSpec, avail []int) error {
	e := ws.eng
	if e.cfg.PolicyFactory != nil {
		pol, err := e.cfg.PolicyFactory(d, avail, ws.rngs[d])
		if err != nil {
			return fmt.Errorf("sim: device %d: %w", d, err)
		}
		ws.adoptPolicy(d, pol)
		return nil
	}
	if ri, ok := ws.spare[d].(core.Reinitializer); ok {
		ri.Reinit(avail, ws.rngs[d])
		ws.adoptPolicy(d, ri)
		ws.spare[d] = nil
		return nil
	}
	pol, err := core.New(spec.Algorithm, avail, e.cfg.Core, ws.rngs[d])
	if err != nil {
		return fmt.Errorf("sim: device %d: %w", d, err)
	}
	ws.adoptPolicy(d, pol)
	return nil
}

// adoptPolicy activates a policy for device d, caching the interface
// assertions the slot loop would otherwise repeat every slot.
func (ws *Workspace) adoptPolicy(d int, pol core.Policy) {
	ws.policies[d] = pol
	ws.fullPols[d], _ = pol.(core.FullFeedbackPolicy)
	ws.probPols[d], _ = pol.(core.ProbabilityReporter)
}

// refreshEpoch rebuilds the cached NE for the current active set and, for
// the Centralized baseline, recomputes the coordinator's assignment with
// minimal churn (best-response dynamics seeded from the previous one).
func (ws *Workspace) refreshEpoch() error {
	e := ws.eng
	ws.activeList = ws.activeList[:0]
	for d := range ws.idxOf {
		ws.idxOf[d] = -1
	}
	for d := range e.cfg.Devices {
		if ws.active[d] {
			ws.idxOf[d] = len(ws.activeList)
			ws.activeList = append(ws.activeList, d)
		}
	}
	if len(ws.activeList) == 0 {
		ws.prepared = nil
		return nil
	}
	ws.instance.Bandwidths = e.bandwidths
	ws.instance.Devices = ws.instance.Devices[:0]
	for _, d := range ws.activeList {
		ws.instance.Devices = append(ws.instance.Devices,
			game.Device{Available: e.cfg.Topology.Areas[ws.areas[d]]})
	}
	if err := ws.neCache.PrepareInto(ws.instance); err != nil {
		return err
	}
	ws.prepared = &ws.neCache
	ws.distCacheOK = false
	if ws.distEval == nil {
		ws.distEval = ws.prepared.NewEval()
	} else {
		ws.distEval.Reset(ws.prepared)
	}

	if e.centralized {
		ws.seedBuf = ws.seedBuf[:0]
		for _, d := range ws.activeList {
			ws.seedBuf = append(ws.seedBuf, ws.coordNets[d])
		}
		assign := ws.instance.NashAssignmentFromScratch(ws.seedBuf, &ws.coordSolve)
		for i, d := range ws.activeList {
			ws.coordNets[d] = assign[i]
		}
	}
	return nil
}

// selectAll asks every active device for its network choice this slot.
//
//repolint:allocfree via TestWorkspaceSteadyStateAllocs
func (ws *Workspace) selectAll(t int) {
	e := ws.eng
	for d := range e.cfg.Devices {
		if !ws.active[d] {
			ws.choices[d] = -1
			continue
		}
		if e.centralized {
			ws.choices[d] = ws.coordNets[d]
		} else {
			ws.choices[d] = ws.policies[d].Select()
		}
		if e.cfg.Collect.Selections {
			ws.res.Devices[d].Selections[t] = ws.choices[d]
		}
	}
	if e.cfg.Collect.Probabilities {
		ws.recordProbabilities()
	}
}

// computeShares derives each active device's observed bit rate: the equal
// share of its network's bandwidth, optionally perturbed by measurement
// noise.
//
//repolint:allocfree via TestWorkspaceSteadyStateAllocs
func (ws *Workspace) computeShares() {
	e := ws.eng
	for i := range ws.counts {
		ws.counts[i] = 0
	}
	for d := range e.cfg.Devices {
		if ws.choices[d] >= 0 {
			ws.counts[ws.choices[d]]++
		}
	}
	for d := range e.cfg.Devices {
		if ws.choices[d] < 0 {
			ws.bitrates[d] = 0
			continue
		}
		share := game.Share(e.bandwidths[ws.choices[d]], ws.counts[ws.choices[d]])
		if e.cfg.NoiseStdDev > 0 {
			factor := 1 + e.cfg.NoiseStdDev*ws.rngs[d].NormFloat64()
			share *= math.Min(math.Max(factor, 0), 2)
		}
		ws.bitrates[d] = share
	}
}

// sampleDelays batches this slot's switching-delay draws: switchers are
// partitioned by the technology they switch to and each partition is filled
// with one dist.SampleInto call, so the loop pays one dynamic dispatch per
// technology instead of one per switching device. Each draw still comes from
// the switching device's own RNG stream, so batching leaves every stream —
// and therefore every aggregate — bit-identical to per-device sampling.
//
//repolint:allocfree via TestWorkspaceSteadyStateAllocs
func (ws *Workspace) sampleDelays() {
	e := ws.eng
	ws.wifiDevs, ws.cellDevs = ws.wifiDevs[:0], ws.cellDevs[:0]
	ws.wifiRngs, ws.cellRngs = ws.wifiRngs[:0], ws.cellRngs[:0]
	for d := range e.cfg.Devices {
		if ws.choices[d] < 0 || ws.lastNet[d] < 0 || ws.choices[d] == ws.lastNet[d] {
			continue
		}
		if e.isCellular[ws.choices[d]] {
			//repolint:ignore allocfree append into workspace scratch that reaches device-count capacity after the first slot and is retained for the run
			ws.cellDevs = append(ws.cellDevs, d)
			//repolint:ignore allocfree append into workspace scratch that reaches device-count capacity after the first slot and is retained for the run
			ws.cellRngs = append(ws.cellRngs, ws.rngs[d])
		} else {
			//repolint:ignore allocfree append into workspace scratch that reaches device-count capacity after the first slot and is retained for the run
			ws.wifiDevs = append(ws.wifiDevs, d)
			//repolint:ignore allocfree append into workspace scratch that reaches device-count capacity after the first slot and is retained for the run
			ws.wifiRngs = append(ws.wifiRngs, ws.rngs[d])
		}
	}
	if len(ws.wifiDevs) > 0 {
		ws.wifiBuf = growFloats(ws.wifiBuf, len(ws.wifiDevs))
		dist.SampleInto(e.cfg.WiFiDelay, ws.wifiRngs, ws.wifiBuf)
		for i, d := range ws.wifiDevs {
			ws.delays[d] = math.Min(math.Max(ws.wifiBuf[i], 0), e.cfg.SlotSeconds)
		}
	}
	if len(ws.cellDevs) > 0 {
		ws.cellBuf = growFloats(ws.cellBuf, len(ws.cellDevs))
		dist.SampleInto(e.cfg.CellularDelay, ws.cellRngs, ws.cellBuf)
		for i, d := range ws.cellDevs {
			ws.delays[d] = math.Min(math.Max(ws.cellBuf[i], 0), e.cfg.SlotSeconds)
		}
	}
}

// settleSlot applies switching delays, accumulates goodput, feeds policies
// their feedback, and records the slot's metrics.
//
//repolint:allocfree via TestWorkspaceSteadyStateAllocs
func (ws *Workspace) settleSlot(t int) {
	e := ws.eng
	ws.sampleDelays()
	for d := range e.cfg.Devices {
		if ws.choices[d] < 0 {
			continue
		}
		dev := &ws.res.Devices[d]
		var delay float64
		if ws.lastNet[d] >= 0 && ws.choices[d] != ws.lastNet[d] {
			dev.Switches++
			delay = ws.delays[d]
			dev.DelaySeconds += delay
		}
		dev.DownloadMb += ws.bitrates[d] * (e.cfg.SlotSeconds - delay)
		if e.cfg.Collect.Bitrates {
			dev.BitrateMbps[t] = ws.bitrates[d]
		}

		if !e.centralized {
			ws.policies[d].Observe(ws.gainOf(ws.bitrates[d], ws.choices[d]))
			if full := ws.fullPols[d]; full != nil {
				full.ObserveAll(ws.counterfactualGains(d))
			}
		}
		ws.lastNet[d] = ws.choices[d]
	}

	// Unutilized resources: bandwidth-time of idle networks.
	for i, c := range ws.counts {
		bwTime := e.bandwidths[i] * e.cfg.SlotSeconds
		ws.res.TotalMb += bwTime
		if c == 0 {
			ws.res.UnusedMb += bwTime
		}
	}

	ws.recordDistance(t)
}

// counterfactualGains computes, for a FullFeedbackPolicy device, the gain it
// would have observed on each of its available networks this slot: its own
// share where it is, and bandwidth/(count+1) elsewhere. The returned slice
// is workspace scratch, valid until the next call.
//
//repolint:allocfree via TestWorkspaceSteadyStateAllocs
func (ws *Workspace) counterfactualGains(d int) []float64 {
	e := ws.eng
	avail := ws.policies[d].Available()
	ws.cfGains = growFloats(ws.cfGains, len(avail))
	for i, net := range avail {
		var share float64
		if net == ws.choices[d] {
			share = ws.bitrates[d]
		} else {
			share = game.Share(e.bandwidths[net], ws.counts[net]+1)
		}
		ws.cfGains[i] = ws.gainOf(share, net)
	}
	return ws.cfGains
}

// gainOf maps an observed bit rate into the [0,1] gain the policy sees,
// folding in the configured multi-criteria utility when present.
//
//repolint:allocfree via TestWorkspaceSteadyStateAllocs
func (ws *Workspace) gainOf(bitrate float64, net int) float64 {
	e := ws.eng
	gain := clampUnit(bitrate / e.gainScale)
	if e.costs == nil {
		return gain
	}
	return e.cfg.Criteria.Utility(gain, e.costs[net])
}

// recordDistance evaluates the Definition 3 metric for the slot, overall and
// per configured device group, and the at-NE / at-ε accounting — all through
// workspace scratch and the epoch's reusable DistanceEval, so the per-slot
// metric costs no allocation. The evaluator sorted the epoch's NE shares
// when the epoch began; a slot sorts only the current gains. Without
// Collect.Distance only the ε verdict is needed, and DistanceEval.Within
// stops at the first device short of ε. When the assignment is identical to
// the previous slot of the same epoch and bit rates are noise-free, every
// input of the metric is unchanged and the cached slot verdicts are
// replayed — converged populations spend most of their slots on this path.
func (ws *Workspace) recordDistance(t int) {
	e := ws.eng
	if ws.prepared == nil || len(ws.activeList) == 0 {
		return
	}
	n := len(ws.activeList)
	ws.assign = growInts(ws.assign, n)
	for i, d := range ws.activeList {
		ws.assign[i] = ws.choices[d]
	}

	ws.distSlots++
	if ws.distCacheOK && e.cfg.NoiseStdDev == 0 && intsEqual(ws.assign, ws.prevAssign[:n]) {
		if ws.prevAtNE {
			ws.atNESlots++
		}
		if ws.prevEpsHit {
			ws.atEpsSlots++
		}
		if e.cfg.Collect.Distance {
			ws.res.Distance[t] = ws.prevDist
			for g := range e.cfg.DeviceGroups {
				if ws.prevGroupSet[g] {
					ws.res.GroupDistance[g][t] = ws.prevGroup[g]
				}
			}
		}
		return
	}

	ws.gains = growFloats(ws.gains, n)
	for i, d := range ws.activeList {
		ws.gains[i] = ws.bitrates[d]
	}
	atNE := ws.instance.IsNashAssignmentWithCounts(ws.assign, ws.counts)
	if atNE {
		ws.atNESlots++
	}
	var epsHit bool
	if e.cfg.Collect.Distance {
		d := ws.distEval.Distance(ws.gains, nil)
		ws.res.Distance[t] = d
		ws.prevDist = d
		for g, members := range e.cfg.DeviceGroups {
			ws.memberIdx = ws.memberIdx[:0]
			for _, d := range members {
				if i := ws.idxOf[d]; i >= 0 {
					ws.memberIdx = append(ws.memberIdx, i)
				}
			}
			ws.prevGroupSet[g] = len(ws.memberIdx) > 0
			if ws.prevGroupSet[g] {
				gd := ws.distEval.Distance(ws.gains, ws.memberIdx)
				ws.res.GroupDistance[g][t] = gd
				ws.prevGroup[g] = gd
			}
		}
		epsHit = d <= e.cfg.EpsilonPercent
	} else {
		// ε accounting needs only the verdict, which stops at the first
		// device short of ε.
		epsHit = ws.distEval.Within(ws.gains, e.cfg.EpsilonPercent)
	}
	if epsHit {
		ws.atEpsSlots++
	}
	ws.prevAtNE, ws.prevEpsHit = atNE, epsHit
	ws.prevAssign = growInts(ws.prevAssign, n)
	copy(ws.prevAssign, ws.assign)
	ws.distCacheOK = true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordProbabilities snapshots each active device's selection-distribution
// peak for stable-state detection. Devices without a probability
// distribution (Greedy, Fixed Random, Centralized) record nothing.
func (ws *Workspace) recordProbabilities() {
	for d := range ws.eng.cfg.Devices {
		if !ws.active[d] || ws.policies[d] == nil {
			continue
		}
		rep := ws.probPols[d]
		if rep == nil {
			continue
		}
		probs := rep.Probabilities()
		avail := ws.policies[d].Available()
		best, bestP := -1, -1.0
		for i, p := range probs {
			if p > bestP {
				best, bestP = avail[i], p
			}
		}
		ws.argmaxRec[d] = append(ws.argmaxRec[d], best)
		ws.probRec[d] = append(ws.probRec[d], bestP)
	}
}

// finish computes run-level aggregates: fraction of time at (ε-)equilibrium,
// per-device stability, and the Definition 2 run verdict.
func (ws *Workspace) finish() {
	e := ws.eng
	if ws.distSlots > 0 {
		ws.res.FracAtNE = float64(ws.atNESlots) / float64(ws.distSlots)
		ws.res.FracAtEps = float64(ws.atEpsSlots) / float64(ws.distSlots)
	}
	for d := range e.cfg.Devices {
		if p, ok := ws.policies[d].(core.ResetReporter); ok && p != nil {
			ws.res.Devices[d].Resets = p.Resets()
		}
	}
	if !e.cfg.Collect.Probabilities {
		return
	}
	// Definition 2 needs every device observable for the whole horizon with
	// a probability distribution.
	allEligible := true
	for d := range e.cfg.Devices {
		if !ws.res.Devices[d].PresentThroughout || len(ws.argmaxRec[d]) != e.cfg.Slots {
			allEligible = false
		}
		ws.res.Devices[d].StableFrom = game.StableFrom(ws.argmaxRec[d], ws.probRec[d])
	}
	if allEligible {
		ws.res.Stability = game.DetectStability(e.bandwidths, ws.argmaxRec, ws.probRec)
		ws.res.StabilityValid = true
	}
}

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// growFloats returns a slice of length n reusing s's backing array when
// possible. Contents are unspecified; callers overwrite every element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func filledInts(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func filledFloats(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
