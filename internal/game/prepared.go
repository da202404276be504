package game

import (
	"math"
	"slices"
)

// PreparedNE caches the Nash-equilibrium solution of an Instance so that the
// per-slot distance-to-NE metric can be evaluated cheaply: the simulator
// recomputes the NE only when the set of active devices or an availability
// set changes (an "epoch"), and evaluates Distance every slot.
type PreparedNE struct {
	shares  []float64 // per-device gain at the cached NE assignment
	groupOf []int     // availability-group id per device (first-occurrence order)
	nGroups int
	assign  []int         // the cached NE assignment
	solver  AssignScratch // NE solve buffers, reused across epochs
	reps    [][]int       // one representative availability set per group
	repKeys []uint64      // availabilityKey of each representative
}

// Prepare solves the instance once and returns the cached solution. Devices
// are partitioned into availability groups (identical availability sets) in
// first-occurrence order; Definition 3 rank-matches gains within each group.
//
// Callers that re-solve on every epoch (the simulator's workspace) should
// keep one PreparedNE and call PrepareInto instead, which reuses its buffers.
func Prepare(in Instance) (*PreparedNE, error) {
	p := &PreparedNE{}
	if err := p.PrepareInto(in); err != nil {
		return nil, err
	}
	return p, nil
}

// PrepareInto re-solves the instance into p in place, reusing every buffer a
// previous solve left behind: after the first epoch of a replication,
// refreshing the NE cache allocates nothing. The cached solution is
// overwritten, so slices previously obtained from Assignment are invalidated.
// The result is identical to a fresh Prepare of the same instance.
func (p *PreparedNE) PrepareInto(in Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	assign := in.NashAssignmentFromScratch(nil, &p.solver)
	p.assign = growInts(p.assign, len(assign))
	copy(p.assign, assign)
	// The solver's counts are the occupancy of the final assignment, so the
	// NE shares follow without a recount.
	p.shares = growFloats(p.shares, len(in.Devices))
	for d, i := range p.assign {
		p.shares[d] = Share(in.Bandwidths[i], p.solver.counts[i])
	}
	// Group devices by availability set, in first-occurrence order. Each
	// device is compared only against the groups whose order-independent
	// key matches its own, so the multiset compare runs about once per
	// device.
	p.groupOf = growInts(p.groupOf, len(in.Devices))
	p.reps = p.reps[:0]
	p.repKeys = p.repKeys[:0]
	for d, dev := range in.Devices {
		key := availabilityKey(dev.Available)
		g := -1
		for i, rk := range p.repKeys {
			if rk == key && sameAvailability(p.reps[i], dev.Available) {
				g = i
				break
			}
		}
		if g < 0 {
			g = len(p.reps)
			p.reps = append(p.reps, dev.Available)
			p.repKeys = append(p.repKeys, key)
		}
		p.groupOf[d] = g
	}
	p.nGroups = len(p.reps)
	return nil
}

// availabilityKey fingerprints an availability set as a multiset: the
// length plus a sum of per-id hashes, so permutations of one set share a
// key. Equal sets always have equal keys; unequal sets rarely do, and
// sameAvailability settles every match.
func availabilityKey(avail []int) uint64 {
	h := uint64(len(avail))
	for _, x := range avail {
		z := uint64(x) + 0x9e3779b97f4a7c15 // splitmix64 finalizer
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h += z ^ z>>31
	}
	return h
}

// sameAvailability reports whether two availability sets contain the same
// networks with the same multiplicities (topology validation does not
// forbid duplicate ids within an area). The quadratic count-compare avoids
// allocating; availability sets are small. Devices in one area share the
// area's slice, which is the same set without any compare.
func sameAvailability(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for _, x := range a {
		ca, cb := 0, 0
		for _, y := range a {
			if y == x {
				ca++
			}
		}
		for _, y := range b {
			if y == x {
				cb++
			}
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Assignment returns the cached NE assignment (device → network).
// Callers must not modify it.
func (p *PreparedNE) Assignment() []int { return p.assign }

// ShareOf returns device d's gain at the cached NE.
func (p *PreparedNE) ShareOf(d int) float64 { return p.shares[d] }

// Distance evaluates Definition 3 over the given member devices (nil means
// all devices): members are partitioned by availability group, each
// partition's current gains are rank-matched against the partition's NE
// shares, and the worst percentage shortfall is returned. currentGains is
// indexed like the instance's devices.
//
// Distance allocates scratch per call; the simulator's per-slot loop uses a
// reusable DistanceEval instead.
func (p *PreparedNE) Distance(currentGains []float64, members []int) float64 {
	e := p.NewEval()
	return e.Distance(currentGains, members)
}

// DistanceEval evaluates Definition 3 against one PreparedNE without
// allocating per call. Everything that is fixed for the epoch is computed
// once by Reset: the layout that places each availability group's devices
// in one contiguous range of a flat buffer, and each group's NE shares in
// ascending order. A call then only scatters the current gains into that
// layout and sorts each group's range. An evaluator must not be shared
// between goroutines.
type DistanceEval struct {
	p *PreparedNE
	// Group g's devices occupy [off[g], off[g+1]) of ne and cur, in device
	// order; slot[d] is device d's position.
	off  []int
	slot []int
	ne   []float64 // NE shares by position, each group's range sorted
	cur  []float64 // current gains by position, rewritten every call
	// Member-subset scratch, per group, truncated to zero each call.
	subCur, subNE [][]float64
}

// NewEval returns a reusable Definition 3 evaluator for the prepared NE.
func (p *PreparedNE) NewEval() *DistanceEval {
	e := &DistanceEval{}
	e.Reset(p)
	return e
}

// Reset retargets the evaluator at a prepared NE for a new epoch, keeping
// its buffers, and sorts each group's NE shares once for the whole epoch.
// It must follow every PrepareInto of p, which overwrites what the
// evaluator cached. The simulator carries one evaluator per workspace
// across every epoch and replication.
func (e *DistanceEval) Reset(p *PreparedNE) {
	e.p = p
	n := len(p.shares)
	e.off = growInts(e.off, p.nGroups+1)
	clear(e.off)
	for _, g := range p.groupOf[:n] {
		e.off[g+1]++
	}
	for g := 0; g < p.nGroups; g++ {
		e.off[g+1] += e.off[g]
	}
	// Place devices with off[g] as group g's cursor; afterwards each cursor
	// sits at the next group's start, and one shift restores the offsets.
	e.slot = growInts(e.slot, n)
	e.ne = growFloats(e.ne, n)
	e.cur = growFloats(e.cur, n)
	for d, g := range p.groupOf[:n] {
		e.slot[d] = e.off[g]
		e.ne[e.off[g]] = p.shares[d]
		e.off[g]++
	}
	copy(e.off[1:], e.off[:p.nGroups])
	e.off[0] = 0
	for g := 0; g < p.nGroups; g++ {
		slices.Sort(e.ne[e.off[g]:e.off[g+1]])
	}
	for len(e.subCur) < p.nGroups {
		e.subCur = append(e.subCur, nil)
		e.subNE = append(e.subNE, nil)
	}
}

// Distance is PreparedNE.Distance evaluated through the reusable scratch.
// It returns bit-identical results to the allocating form: members bucket
// into groups in the same order, and each group's gains are sorted and
// rank-matched identically. Over all devices (nil members) only the
// current gains are sorted; a member subset sorts its own NE shares too.
//
//repolint:allocfree via TestDistanceEvalWarmAllocations
func (e *DistanceEval) Distance(currentGains []float64, members []int) float64 {
	p := e.p
	var worst float64
	if members == nil {
		e.scatter(currentGains)
		for g := 0; g < p.nGroups; g++ {
			cur, ne := e.group(g)
			slices.Sort(cur)
			worst = worstShortfall(worst, cur, ne)
		}
		return worst
	}
	for g := 0; g < p.nGroups; g++ {
		e.subCur[g] = e.subCur[g][:0]
		e.subNE[g] = e.subNE[g][:0]
	}
	for _, d := range members {
		g := p.groupOf[d]
		//repolint:ignore allocfree append into per-group scratch that keeps its capacity across calls, so it grows only while a group reaches its largest member count
		e.subCur[g] = append(e.subCur[g], currentGains[d])
		//repolint:ignore allocfree append into per-group scratch that keeps its capacity across calls, so it grows only while a group reaches its largest member count
		e.subNE[g] = append(e.subNE[g], p.shares[d])
	}
	for g := 0; g < p.nGroups; g++ {
		if len(e.subCur[g]) == 0 {
			continue
		}
		slices.Sort(e.subCur[g])
		slices.Sort(e.subNE[g])
		worst = worstShortfall(worst, e.subCur[g], e.subNE[g])
	}
	return worst
}

// Within reports whether Distance(currentGains, nil) <= eps. It stops at
// the first rank-matched pair whose shortfall exceeds eps, so a slot away
// from the ε-equilibrium skips the rest of the groups.
//
//repolint:allocfree via TestDistanceEvalWarmAllocations
func (e *DistanceEval) Within(currentGains []float64, eps float64) bool {
	// Distance folds from 0 and a NaN shortfall makes it NaN, so a
	// negative or NaN eps, or a NaN pair, fails as Distance <= eps would.
	if !(eps >= 0) {
		return false
	}
	e.scatter(currentGains)
	for g := 0; g < e.p.nGroups; g++ {
		cur, ne := e.group(g)
		slices.Sort(cur)
		for i, c := range cur {
			if !(percentGainIncrease(c, ne[i]) <= eps) {
				return false
			}
		}
	}
	return true
}

// scatter writes every device's current gain to its position in cur.
func (e *DistanceEval) scatter(currentGains []float64) {
	for d, s := range e.slot {
		e.cur[s] = currentGains[d]
	}
}

// group returns group g's current gains and sorted NE shares.
func (e *DistanceEval) group(g int) (cur, ne []float64) {
	lo, hi := e.off[g], e.off[g+1]
	return e.cur[lo:hi], e.ne[lo:hi]
}

// worstShortfall folds the rank-matched shortfalls of one group into worst.
func worstShortfall(worst float64, cur, ne []float64) float64 {
	for i, c := range cur {
		worst = math.Max(worst, percentGainIncrease(c, ne[i]))
	}
	return worst
}
