package game

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// heterogeneousInstance builds a game with several availability groups and
// enough devices to make rank-matching non-trivial.
func heterogeneousInstance(devices int, rng *rand.Rand) Instance {
	avail := [][]int{{0, 1, 2}, {0, 3}, {0, 4}, {1, 2, 3, 4}}
	in := Instance{Bandwidths: []float64{16, 14, 22, 7, 4}}
	for d := 0; d < devices; d++ {
		in.Devices = append(in.Devices, Device{Available: avail[rng.Intn(len(avail))]})
	}
	return in
}

// TestPrepareIntoMatchesFresh pins the pooling contract: re-solving many
// different instances through one reused PreparedNE must give the same
// assignment, shares, grouping and distances as a fresh Prepare of each.
func TestPrepareIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pooled PreparedNE
	for trial := 0; trial < 40; trial++ {
		in := heterogeneousInstance(3+rng.Intn(12), rng)
		if err := pooled.PrepareInto(in); err != nil {
			t.Fatal(err)
		}
		fresh, err := Prepare(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(pooled.Assignment()) != len(fresh.Assignment()) {
			t.Fatalf("trial %d: assignment lengths differ", trial)
		}
		gains := make([]float64, len(in.Devices))
		for d := range gains {
			if pooled.Assignment()[d] != fresh.Assignment()[d] {
				t.Fatalf("trial %d: device %d assigned %d (pooled) vs %d (fresh)",
					trial, d, pooled.Assignment()[d], fresh.Assignment()[d])
			}
			if pooled.ShareOf(d) != fresh.ShareOf(d) {
				t.Fatalf("trial %d: device %d share %v (pooled) vs %v (fresh)",
					trial, d, pooled.ShareOf(d), fresh.ShareOf(d))
			}
			gains[d] = rng.Float64() * 22
		}
		if got, want := pooled.Distance(gains, nil), fresh.Distance(gains, nil); got != want {
			t.Fatalf("trial %d: distance %v (pooled) vs %v (fresh)", trial, got, want)
		}
	}
}

// TestPrepareIntoWarmAllocations asserts the pooling pay-off: once a
// PreparedNE has solved an instance of a given size, re-solving the same
// shape allocates nothing.
func TestPrepareIntoWarmAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := heterogeneousInstance(20, rng)
	var p PreparedNE
	if err := p.PrepareInto(in); err != nil { // warm-up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := p.PrepareInto(in); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm PrepareInto allocates %.1f objects, want 0", avg)
	}
}

// TestNashAssignmentFromScratchMatches pins the scratch solver against the
// allocating entry point, including seeded (minimal-churn) solves.
func TestNashAssignmentFromScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch AssignScratch
	for trial := 0; trial < 40; trial++ {
		in := heterogeneousInstance(2+rng.Intn(10), rng)
		var seed []int
		if trial%2 == 1 {
			seed = make([]int, len(in.Devices))
			for d := range seed {
				seed[d] = rng.Intn(len(in.Bandwidths)+1) - 1 // -1 means unseeded
			}
		}
		want := in.NashAssignmentFrom(seed)
		got := in.NashAssignmentFromScratch(seed, &scratch)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("trial %d: device %d assigned %d (scratch) vs %d (alloc)",
					trial, d, got[d], want[d])
			}
		}
		if !in.IsNashAssignment(got) {
			t.Fatalf("trial %d: scratch assignment is not a Nash equilibrium", trial)
		}
	}
}

// TestDistanceEvalWarmAllocations is the AllocsPerRun gate behind the
// //repolint:allocfree markers on DistanceEval.Distance and Within: once
// the per-group scratch has grown to the instance's group sizes, evaluating
// Definition 3 — over all devices or a member subset — or the ε verdict
// allocates nothing.
func TestDistanceEvalWarmAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := heterogeneousInstance(24, rng)
	var p PreparedNE
	if err := p.PrepareInto(in); err != nil {
		t.Fatal(err)
	}
	e := p.NewEval()
	gains := make([]float64, len(in.Devices))
	for d := range gains {
		gains[d] = rng.Float64() * 5
	}
	members := []int{0, 3, 5, 7, 11, 13}
	e.Distance(gains, members) // warm: subset scratch reaches its group sizes
	avg := testing.AllocsPerRun(100, func() {
		e.Distance(gains, nil)
		e.Distance(gains, members)
		e.Within(gains, 50)
	})
	if avg != 0 {
		t.Fatalf("warm Distance/Within allocates %.1f objects, want 0", avg)
	}
}

// TestDistanceToNashGroupedIsOrderIndependent is the regression test for the
// determinism waiver in DistanceToNashGrouped: the metric folds math.Max over
// a map of availability groups, so its result must not depend on map
// iteration order. Repeated calls hit different orders; all must agree, and
// all must match the deterministic PreparedNE evaluation of the same
// instance.
func TestDistanceToNashGroupedIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := heterogeneousInstance(24, rng)
	gains := make([]float64, len(in.Devices))
	for d := range gains {
		gains[d] = rng.Float64() * 5
	}
	want := in.DistanceToNashGrouped(gains)
	for i := 0; i < 50; i++ {
		if got := in.DistanceToNashGrouped(gains); got != want {
			t.Fatalf("call %d: distance %v, previous calls %v — map order leaked into the result", i, got, want)
		}
	}
	var p PreparedNE
	if err := p.PrepareInto(in); err != nil {
		t.Fatal(err)
	}
	if got := p.Distance(gains, nil); math.Abs(got-want) > 1e-9 {
		t.Fatalf("prepared Distance %v, grouped %v", got, want)
	}
}

// referenceDistance is Definition 3 with no epoch-scoped state: every call
// buckets the members' gains and NE shares by group in member order and
// sorts both before rank-matching.
func referenceDistance(p *PreparedNE, gains []float64, members []int) float64 {
	if members == nil {
		members = make([]int, len(p.shares))
		for d := range members {
			members[d] = d
		}
	}
	cur := make([][]float64, p.nGroups)
	ne := make([][]float64, p.nGroups)
	for _, d := range members {
		g := p.groupOf[d]
		cur[g] = append(cur[g], gains[d])
		ne[g] = append(ne[g], p.shares[d])
	}
	var worst float64
	for g := range cur {
		slices.Sort(cur[g])
		slices.Sort(ne[g])
		for i := range cur[g] {
			worst = math.Max(worst, percentGainIncrease(cur[g][i], ne[g][i]))
		}
	}
	return worst
}

// TestDistanceEvalWithinAndRanksMatchReference is the property test for the
// evaluator's epoch-scoped NE ranks and early-exit ε check. One evaluator
// is carried across many epochs, as the simulator carries it. In every
// epoch, for random gains drawn with ties, zeros, values under the 1e-9
// floor, exact NE shares and the odd NaN, Distance over all devices and
// over member subsets returns the reference's bits, and Within(g, eps)
// equals Distance(g, nil) <= eps — with eps exactly at the worst pair, one
// ulp below it, random, zero, negative, NaN and infinite.
func TestDistanceEvalWithinAndRanksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var p PreparedNE
	var e DistanceEval
	pool := []float64{0, 1e-12, 5e-10, 1e-9, 0.5, 1, 2, 3.5, 4, 7, 8, 11, 14, 16, 22}
	// An empty instance first: Distance is 0, so Within holds exactly for
	// eps >= 0.
	if err := p.PrepareInto(Instance{Bandwidths: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	e.Reset(&p)
	for _, eps := range []float64{0, 1, -1, math.NaN()} {
		if got, want := e.Within(nil, eps), e.Distance(nil, nil) <= eps; got != want {
			t.Fatalf("empty instance: Within(eps=%v) = %v, want %v", eps, got, want)
		}
	}
	for epoch := 0; epoch < 60; epoch++ {
		in := heterogeneousInstance(1+rng.Intn(30), rng)
		// Some epochs shuffle one group's availability order: the same set
		// must still form one group.
		if epoch%3 == 0 {
			in.Devices[0].Available = []int{2, 0, 1}
		}
		if err := p.PrepareInto(in); err != nil {
			t.Fatal(err)
		}
		e.Reset(&p)
		n := len(in.Devices)
		checkGrouping(t, in, &p)
		gains := make([]float64, n)
		for trial := 0; trial < 25; trial++ {
			for d := range gains {
				switch rng.Intn(4) {
				case 0:
					gains[d] = pool[rng.Intn(len(pool))]
				case 1:
					gains[d] = p.ShareOf(d)
				default:
					gains[d] = rng.Float64() * 22
				}
			}
			if trial%10 == 9 { // a NaN gain makes Distance NaN: never within ε
				gains[rng.Intn(n)] = math.NaN()
			}
			dist := e.Distance(gains, nil)
			if want := referenceDistance(&p, gains, nil); math.Float64bits(dist) != math.Float64bits(want) {
				t.Fatalf("epoch %d trial %d: Distance %v, reference %v", epoch, trial, dist, want)
			}
			members := rng.Perm(n)[:1+rng.Intn(n)]
			slices.Sort(members)
			got, want := e.Distance(gains, members), referenceDistance(&p, gains, members)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("epoch %d trial %d: member Distance %v, reference %v", epoch, trial, got, want)
			}
			for _, eps := range []float64{dist, math.Nextafter(dist, math.Inf(-1)), rng.Float64() * 2 * dist,
				rng.Float64() * 100, 0, -1, math.NaN(), math.Inf(1)} {
				if got, want := e.Within(gains, eps), dist <= eps; got != want {
					t.Fatalf("epoch %d trial %d: Within(eps=%v) = %v, Distance %v <= eps is %v",
						epoch, trial, eps, got, dist, want)
				}
			}
		}
	}
}

// checkGrouping asserts PrepareInto's grouping: two devices share a group
// exactly when their availability sets are equal as multisets, and group
// ids are numbered in first-occurrence order.
func checkGrouping(t *testing.T, in Instance, p *PreparedNE) {
	t.Helper()
	sorted := func(a []int) []int { return slices.Sorted(slices.Values(a)) }
	next := 0
	for d, dev := range in.Devices {
		if g := p.groupOf[d]; g == next {
			next++
		} else if g > next {
			t.Fatalf("device %d opens group %d before group %d", d, g, next)
		}
		for c := 0; c < d; c++ {
			same := slices.Equal(sorted(dev.Available), sorted(in.Devices[c].Available))
			if same != (p.groupOf[d] == p.groupOf[c]) {
				t.Fatalf("devices %d %v and %d %v: same set %v, groups %d and %d",
					c, in.Devices[c].Available, d, dev.Available, same, p.groupOf[c], p.groupOf[d])
			}
		}
	}
}
