// Package game formulates wireless network selection as the singleton
// congestion game of Section II-B and implements the evaluation machinery
// built on it: Nash equilibria, ε-equilibria, the distance-to-Nash metric
// (Definition 3), stable-state detection (Definition 2), and the
// distance-from-average-bit-rate metric of Definition 4.
//
// The game: n devices each pick one network from their availability set; a
// network with bandwidth b shared by m devices gives each of them gain b/m.
// This is a singleton congestion game, hence a potential game: best-response
// dynamics terminate at a pure Nash equilibrium.
package game

import (
	"fmt"
	"math"
	"sort"
)

// Share returns the gain a single device obtains from a network with the
// given bandwidth when count devices (including itself) share it.
func Share(bandwidth float64, count int) float64 {
	if count <= 0 {
		return 0
	}
	return bandwidth / float64(count)
}

// NashCounts computes a pure Nash equilibrium allocation of devices devices
// over networks with the given bandwidths, assuming every device can access
// every network. It water-fills: each device in turn joins the network
// offering the highest marginal share. For equal-share singleton congestion
// games this greedy process yields a Nash equilibrium.
func NashCounts(bandwidths []float64, devices int) []int {
	counts := make([]int, len(bandwidths))
	for d := 0; d < devices; d++ {
		best, bestShare := -1, math.Inf(-1)
		for i, b := range bandwidths {
			s := Share(b, counts[i]+1)
			if s > bestShare {
				best, bestShare = i, s
			}
		}
		if best >= 0 {
			counts[best]++
		}
	}
	return counts
}

// IsNash reports whether the allocation counts is a pure Nash equilibrium:
// no device on any occupied network can strictly improve by moving (by
// more than 1e-12, so rounding never breaks a tie).
func IsNash(bandwidths []float64, counts []int) bool {
	const eps = 1e-12
	for i, ci := range counts {
		if ci == 0 {
			continue
		}
		cur := Share(bandwidths[i], ci)
		for j, bj := range bandwidths {
			if j == i {
				continue
			}
			if Share(bj, counts[j]+1) > cur+eps {
				return false
			}
		}
	}
	return true
}

// NashShares returns the sorted (ascending) multiset of per-device gains at
// the Nash allocation counts: the i-th occupied slot of network j contributes
// bandwidths[j]/counts[j].
func NashShares(bandwidths []float64, counts []int) []float64 {
	var shares []float64
	for i, c := range counts {
		s := Share(bandwidths[i], c)
		for m := 0; m < c; m++ {
			shares = append(shares, s)
		}
	}
	sort.Float64s(shares)
	return shares
}

// DistanceToNash implements Definition 3 for devices with identical
// availability sets: the maximum percentage by which any device's gain would
// rise were the system at Nash equilibrium. Devices are interchangeable, so
// we rank-match: current gains and NE shares are sorted ascending and
// compared position-wise, which makes the distance exactly zero at any NE
// allocation and reproduces the paper's worked example
// ({1,1,4} vs NE {2,2,2} → 100%).
//
// currentGains and neShares must have equal length. Zero or negative current
// gains are floored at a small epsilon to keep the percentage finite, and the
// result is capped at maxDistance.
func DistanceToNash(currentGains, neShares []float64) float64 {
	if len(currentGains) != len(neShares) {
		panic(fmt.Sprintf("game: gains (%d) and NE shares (%d) differ in length",
			len(currentGains), len(neShares)))
	}
	cur := make([]float64, len(currentGains))
	copy(cur, currentGains)
	sort.Float64s(cur)
	ne := make([]float64, len(neShares))
	copy(ne, neShares)
	sort.Float64s(ne)

	var worst float64
	for i := range cur {
		worst = math.Max(worst, percentGainIncrease(cur[i], ne[i]))
	}
	return worst
}

// maxDistance caps the distance-to-NE percentage so that a device that
// momentarily observes (near-)zero gain does not produce an unbounded or
// infinite distance. The paper's figures plot distances up to 250%.
const maxDistance = 1000

func percentGainIncrease(cur, target float64) float64 {
	if target <= cur {
		return 0
	}
	const minGain = 1e-9
	if cur < minGain {
		cur = minGain
	}
	d := (target - cur) / cur * 100
	return math.Min(d, maxDistance)
}

// Device describes one player in a heterogeneous-availability game: the
// indices of the networks it can reach.
type Device struct {
	Available []int
}

// Instance is a singleton congestion game with per-device availability.
type Instance struct {
	Bandwidths []float64
	Devices    []Device
}

// Validate reports whether the instance is well-formed: every device has a
// non-empty availability set referencing valid networks.
func (in Instance) Validate() error {
	for d, dev := range in.Devices {
		if len(dev.Available) == 0 {
			return fmt.Errorf("game: device %d has no available network", d)
		}
		for _, i := range dev.Available {
			if i < 0 || i >= len(in.Bandwidths) {
				return fmt.Errorf("game: device %d references network %d out of %d",
					d, i, len(in.Bandwidths))
			}
		}
	}
	return nil
}

// NashAssignment computes a pure Nash equilibrium assignment (device index →
// network index) by greedy seeding followed by best-response dynamics. The
// finite improvement property of congestion games guarantees termination.
func (in Instance) NashAssignment() []int {
	return in.NashAssignmentFrom(nil)
}

// NashAssignmentFrom computes a pure Nash equilibrium starting best-response
// dynamics from the given seed assignment (device → network). Devices whose
// seed is -1 or not in their availability set are seeded greedily. A nil
// seed seeds every device greedily. The Centralized baseline uses this to
// carry assignments across environment changes with minimal churn.
func (in Instance) NashAssignmentFrom(seed []int) []int {
	var s AssignScratch
	return in.NashAssignmentFromScratch(seed, &s)
}

// AssignScratch holds the reusable buffers of repeated NashAssignmentFrom
// solves. The zero value is ready to use; buffers grow on demand and are
// kept across calls, so an epoch-heavy simulation solves every refresh
// without allocating. A scratch must not be shared between goroutines.
type AssignScratch struct {
	assign []int
	counts []int
}

// NashAssignmentFromScratch is NashAssignmentFrom evaluated through reusable
// scratch buffers. The returned assignment aliases the scratch and is only
// valid until the next call with the same scratch; callers that need to keep
// it must copy it out.
func (in Instance) NashAssignmentFromScratch(seed []int, s *AssignScratch) []int {
	s.counts = growInts(s.counts, len(in.Bandwidths))
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.assign = growInts(s.assign, len(in.Devices))
	counts, assign := s.counts, s.assign

	// Seed: keep requested placements when valid, otherwise join the best
	// marginal-share network.
	for d, dev := range in.Devices {
		if seed != nil && seed[d] >= 0 && contains(dev.Available, seed[d]) {
			assign[d] = seed[d]
			counts[seed[d]]++
			continue
		}
		best, bestShare := dev.Available[0], math.Inf(-1)
		for _, i := range dev.Available {
			if s := Share(in.Bandwidths[i], counts[i]+1); s > bestShare {
				best, bestShare = i, s
			}
		}
		assign[d] = best
		counts[best]++
	}

	// Best-response dynamics until no device can strictly improve. The
	// potential function strictly decreases on every improving move, so this
	// terminates; the iteration cap is a defensive bound against float
	// pathologies.
	const eps = 1e-12
	maxIters := 4 * len(in.Devices) * len(in.Bandwidths) * (len(in.Devices) + 1)
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		for d, dev := range in.Devices {
			cur := assign[d]
			curShare := Share(in.Bandwidths[cur], counts[cur])
			best, bestShare := cur, curShare
			for _, i := range dev.Available {
				if i == cur {
					continue
				}
				if s := Share(in.Bandwidths[i], counts[i]+1); s > bestShare+eps {
					best, bestShare = i, s
				}
			}
			if best != cur {
				counts[cur]--
				counts[best]++
				assign[d] = best
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return assign
}

// SharesOf returns the per-device gain under the given assignment.
func (in Instance) SharesOf(assign []int) []float64 {
	counts := make([]int, len(in.Bandwidths))
	for _, i := range assign {
		counts[i]++
	}
	shares := make([]float64, len(assign))
	for d, i := range assign {
		shares[d] = Share(in.Bandwidths[i], counts[i])
	}
	return shares
}

// IsNashAssignment reports whether assign is a pure Nash equilibrium of the
// instance.
func (in Instance) IsNashAssignment(assign []int) bool {
	counts := make([]int, len(in.Bandwidths))
	for _, i := range assign {
		counts[i]++
	}
	return in.IsNashAssignmentWithCounts(assign, counts)
}

// IsNashAssignmentWithCounts is IsNashAssignment with the per-network
// occupancy counts supplied by the caller (counts[i] devices on network i
// under assign). The simulator's slot loop already maintains these counts,
// so handing them in avoids an allocation per slot.
func (in Instance) IsNashAssignmentWithCounts(assign, counts []int) bool {
	const eps = 1e-12
	for d, dev := range in.Devices {
		cur := assign[d]
		curShare := Share(in.Bandwidths[cur], counts[cur])
		for _, i := range dev.Available {
			if i == cur {
				continue
			}
			if Share(in.Bandwidths[i], counts[i]+1) > curShare+eps {
				return false
			}
		}
	}
	return true
}

// DistanceToNashGrouped implements Definition 3 for heterogeneous
// availability: devices are grouped by availability signature, each group's
// current gains are rank-matched against the group's NE shares, and the
// worst percentage shortfall across all devices is returned. groupOf may be
// nil, in which case all devices form one group (requiring identical
// availability for the metric to be meaningful).
func (in Instance) DistanceToNashGrouped(currentGains []float64) float64 {
	assign := in.NashAssignment()
	neShares := in.SharesOf(assign)

	groups := make(map[string][]int)
	for d, dev := range in.Devices {
		groups[signature(dev.Available)] = append(groups[signature(dev.Available)], d)
	}
	var worst float64
	//repolint:ignore determinism order cannot reach results: math.Max is a commutative fold and each group's distance is computed independently
	for _, members := range groups {
		cur := make([]float64, 0, len(members))
		ne := make([]float64, 0, len(members))
		for _, d := range members {
			cur = append(cur, currentGains[d])
			ne = append(ne, neShares[d])
		}
		worst = math.Max(worst, DistanceToNash(cur, ne))
	}
	return worst
}

// growInts returns a slice of length n reusing s's backing array when
// possible. Contents are unspecified; callers overwrite every element.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats is growInts for float64 slices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func signature(avail []int) string {
	sorted := make([]int, len(avail))
	copy(sorted, avail)
	sort.Ints(sorted)
	sig := make([]byte, 0, 3*len(sorted))
	for _, i := range sorted {
		sig = append(sig, byte(i), byte(i>>8), ',')
	}
	return string(sig)
}
