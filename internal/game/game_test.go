package game

import (
	"math"
	"testing"
	"testing/quick"

	"smartexp3/internal/rngutil"
)

func TestShare(t *testing.T) {
	tests := []struct {
		name  string
		bw    float64
		count int
		want  float64
	}{
		{name: "single device", bw: 22, count: 1, want: 22},
		{name: "shared", bw: 22, count: 2, want: 11},
		{name: "empty network", bw: 22, count: 0, want: 0},
		{name: "negative guarded", bw: 22, count: -1, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Share(tt.bw, tt.count); got != tt.want {
				t.Fatalf("Share(%v,%d) = %v, want %v", tt.bw, tt.count, got, tt.want)
			}
		})
	}
}

func TestNashCountsSetting1(t *testing.T) {
	// Setting 1 of the paper: 20 devices, rates 4/7/22 — the unique NE is
	// (2, 4, 14) with shares (2, 1.75, ~1.571).
	counts := NashCounts([]float64{4, 7, 22}, 20)
	if counts[0] != 2 || counts[1] != 4 || counts[2] != 14 {
		t.Fatalf("NashCounts = %v, want [2 4 14]", counts)
	}
	if !IsNash([]float64{4, 7, 22}, counts) {
		t.Fatal("computed allocation is not a Nash equilibrium")
	}
}

func TestNashCountsSetting2(t *testing.T) {
	counts := NashCounts([]float64{11, 11, 11}, 21)
	for i, c := range counts {
		if c != 7 {
			t.Fatalf("uniform setting should split evenly, got counts[%d]=%d", i, c)
		}
	}
}

func TestNashCountsTotalDevices(t *testing.T) {
	counts := NashCounts([]float64{5, 9}, 13)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 13 {
		t.Fatalf("allocation places %d devices, want 13", total)
	}
}

func TestNashCountsNoImprovingDeviationProperty(t *testing.T) {
	rng := rngutil.New(1)
	f := func() bool {
		k := 2 + rng.Intn(5)
		n := 1 + rng.Intn(40)
		bws := make([]float64, k)
		for i := range bws {
			bws[i] = 1 + 30*rng.Float64()
		}
		return IsNash(bws, NashCounts(bws, n))
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatalf("water-filling produced a non-equilibrium allocation (iteration %d)", i)
		}
	}
}

func TestIsNashDetectsDeviation(t *testing.T) {
	// All 20 devices on the 4 Mbps network: moving to 22 Mbps wins.
	if IsNash([]float64{4, 7, 22}, []int{20, 0, 0}) {
		t.Fatal("grossly unbalanced allocation accepted as NE")
	}
}

// TestIsEpsilonNash pins the ε-equilibrium the simulator counts, the
// paper's Definition 3: an unbalanced split is not an exact NE, yet it is
// an ε-equilibrium when no device's gain would rise by more than ε percent
// at the NE. Here the six devices at 10/6 would rise to 2, by 20%.
func TestIsEpsilonNash(t *testing.T) {
	bws := []float64{10, 10}
	counts := []int{6, 4}
	if IsNash(bws, counts) {
		t.Fatal("unbalanced split accepted as exact NE")
	}
	d := DistanceToNash(NashShares(bws, counts), NashShares(bws, NashCounts(bws, 10)))
	if d > 25 {
		t.Fatalf("allocation should be a 25%% equilibrium: distance %v%%", d)
	}
	if d <= 10 {
		t.Fatalf("allocation should not be a 10%% equilibrium: distance %v%%", d)
	}
}

func TestNashSharesSortedAndComplete(t *testing.T) {
	shares := NashShares([]float64{4, 7, 22}, []int{2, 4, 14})
	if len(shares) != 20 {
		t.Fatalf("want 20 shares, got %d", len(shares))
	}
	for i := 1; i < len(shares); i++ {
		if shares[i] < shares[i-1] {
			t.Fatalf("shares not sorted: %v", shares)
		}
	}
	if shares[len(shares)-1] != 2 {
		t.Fatalf("max share %v, want 2 (4 Mbps / 2 devices)", shares[len(shares)-1])
	}
}

func TestDistanceToNashPaperExample(t *testing.T) {
	// The paper's worked example: gains {1,1,4} vs NE shares {2,2,2} → 100%.
	got := DistanceToNash([]float64{1, 1, 4}, []float64{2, 2, 2})
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("distance = %v, want 100", got)
	}
}

func TestDistanceToNashZeroAtEquilibrium(t *testing.T) {
	bws := []float64{4, 7, 22}
	counts := NashCounts(bws, 20)
	shares := NashShares(bws, counts)
	if got := DistanceToNash(shares, shares); got != 0 {
		t.Fatalf("distance at NE = %v, want 0", got)
	}
}

func TestDistanceToNashZeroAtEquilibriumProperty(t *testing.T) {
	rng := rngutil.New(2)
	for i := 0; i < 100; i++ {
		k := 2 + rng.Intn(4)
		n := 1 + rng.Intn(30)
		bws := make([]float64, k)
		for j := range bws {
			bws[j] = 1 + 20*rng.Float64()
		}
		shares := NashShares(bws, NashCounts(bws, n))
		if d := DistanceToNash(shares, shares); d != 0 {
			t.Fatalf("iteration %d: distance %v at equilibrium", i, d)
		}
	}
}

func TestDistanceToNashNonNegativeProperty(t *testing.T) {
	f := func(rawCur, rawNE []float64) bool {
		n := len(rawCur)
		if len(rawNE) < n {
			n = len(rawNE)
		}
		if n == 0 {
			return true
		}
		cur := make([]float64, n)
		ne := make([]float64, n)
		for i := 0; i < n; i++ {
			cur[i] = math.Abs(rawCur[i])
			ne[i] = math.Abs(rawNE[i])
			if math.IsNaN(cur[i]) || math.IsInf(cur[i], 0) {
				cur[i] = 1
			}
			if math.IsNaN(ne[i]) || math.IsInf(ne[i], 0) {
				ne[i] = 1
			}
		}
		d := DistanceToNash(cur, ne)
		return d >= 0 && d <= maxDistance
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceToNashMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mismatched lengths")
		}
	}()
	DistanceToNash([]float64{1}, []float64{1, 2})
}

func TestDistanceCapsAtMax(t *testing.T) {
	got := DistanceToNash([]float64{0}, []float64{10})
	if got != maxDistance {
		t.Fatalf("distance with zero gain = %v, want cap %v", got, maxDistance)
	}
}

func TestInstanceValidate(t *testing.T) {
	in := Instance{Bandwidths: []float64{1, 2}}
	in.Devices = []Device{{Available: nil}}
	if err := in.Validate(); err == nil {
		t.Fatal("want error for empty availability")
	}
	in.Devices = []Device{{Available: []int{5}}}
	if err := in.Validate(); err == nil {
		t.Fatal("want error for out-of-range network")
	}
	in.Devices = []Device{{Available: []int{0, 1}}}
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestNashAssignmentHomogeneousMatchesCounts(t *testing.T) {
	bws := []float64{4, 7, 22}
	in := Instance{Bandwidths: bws}
	for d := 0; d < 20; d++ {
		in.Devices = append(in.Devices, Device{Available: []int{0, 1, 2}})
	}
	assign := in.NashAssignment()
	counts := make([]int, 3)
	for _, i := range assign {
		counts[i]++
	}
	want := NashCounts(bws, 20)
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("assignment counts %v, want %v", counts, want)
		}
	}
	if !in.IsNashAssignment(assign) {
		t.Fatal("assignment is not an equilibrium")
	}
}

func TestNashAssignmentHeterogeneousProperty(t *testing.T) {
	rng := rngutil.New(3)
	for i := 0; i < 100; i++ {
		k := 2 + rng.Intn(4)
		bws := make([]float64, k)
		for j := range bws {
			bws[j] = 1 + 20*rng.Float64()
		}
		in := Instance{Bandwidths: bws}
		n := 1 + rng.Intn(25)
		for d := 0; d < n; d++ {
			var avail []int
			for j := 0; j < k; j++ {
				if rng.Float64() < 0.6 {
					avail = append(avail, j)
				}
			}
			if len(avail) == 0 {
				avail = []int{rng.Intn(k)}
			}
			in.Devices = append(in.Devices, Device{Available: avail})
		}
		assign := in.NashAssignment()
		if !in.IsNashAssignment(assign) {
			t.Fatalf("iteration %d: best-response dynamics did not reach NE", i)
		}
	}
}

func TestNashAssignmentFromKeepsValidSeeds(t *testing.T) {
	// When the seed already is an equilibrium, it must be returned as-is.
	bws := []float64{4, 7, 22}
	in := Instance{Bandwidths: bws}
	for d := 0; d < 20; d++ {
		in.Devices = append(in.Devices, Device{Available: []int{0, 1, 2}})
	}
	seed := in.NashAssignment()
	again := in.NashAssignmentFrom(seed)
	for d := range seed {
		if seed[d] != again[d] {
			t.Fatalf("equilibrium seed perturbed at device %d", d)
		}
	}
}

func TestDistanceToNashGrouped(t *testing.T) {
	in := Instance{
		Bandwidths: []float64{10, 10},
		Devices: []Device{
			{Available: []int{0, 1}},
			{Available: []int{0, 1}},
		},
	}
	assign := in.NashAssignment()
	shares := in.SharesOf(assign)
	if d := in.DistanceToNashGrouped(shares); d != 0 {
		t.Fatalf("grouped distance at NE = %v", d)
	}
	// One device starved: distance must be positive.
	if d := in.DistanceToNashGrouped([]float64{shares[0], shares[1] / 2}); d <= 0 {
		t.Fatalf("grouped distance = %v, want > 0", d)
	}
}

func TestPreparedNEDistanceMatchesDirect(t *testing.T) {
	in := Instance{Bandwidths: []float64{4, 7, 22}}
	for d := 0; d < 12; d++ {
		in.Devices = append(in.Devices, Device{Available: []int{0, 1, 2}})
	}
	prep, err := Prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	gains := make([]float64, 12)
	for d := range gains {
		gains[d] = float64(d + 1)
	}
	direct := in.DistanceToNashGrouped(gains)
	cached := prep.Distance(gains, nil)
	if math.Abs(direct-cached) > 1e-9 {
		t.Fatalf("prepared distance %v != direct %v", cached, direct)
	}
}

func TestPreparedNESubsetDistance(t *testing.T) {
	in := Instance{Bandwidths: []float64{10, 10}}
	for d := 0; d < 4; d++ {
		in.Devices = append(in.Devices, Device{Available: []int{0, 1}})
	}
	prep, err := Prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	gains := []float64{5, 5, 0.5, 0.5}
	all := prep.Distance(gains, nil)
	richOnly := prep.Distance(gains, []int{0, 1})
	if richOnly != 0 {
		t.Fatalf("well-served subset distance = %v, want 0", richOnly)
	}
	if all <= 0 {
		t.Fatalf("overall distance = %v, want > 0", all)
	}
}

func TestPrepareRejectsInvalidInstance(t *testing.T) {
	if _, err := Prepare(Instance{Bandwidths: []float64{1}, Devices: []Device{{}}}); err == nil {
		t.Fatal("want validation error")
	}
}

// TestPrepareGroupsRespectMultiplicity: availability sets are multisets —
// [0,0,1] and [0,1,2] have equal lengths and overlapping members but must
// land in distinct Definition 3 groups.
func TestPrepareGroupsRespectMultiplicity(t *testing.T) {
	in := Instance{
		Bandwidths: []float64{10, 10, 10},
		Devices: []Device{
			{Available: []int{0, 0, 1}},
			{Available: []int{0, 1, 2}},
			{Available: []int{1, 0, 2}}, // same set as device 1, reordered
		},
	}
	p, err := Prepare(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.nGroups != 2 {
		t.Fatalf("nGroups = %d, want 2 (duplicate-id set must stay separate)", p.nGroups)
	}
	if p.groupOf[0] == p.groupOf[1] {
		t.Fatal("[0,0,1] grouped with [0,1,2]")
	}
	if p.groupOf[1] != p.groupOf[2] {
		t.Fatal("order-insensitive grouping broken: [0,1,2] vs [1,0,2]")
	}
}
