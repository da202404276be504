package rngutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChildSeedDeterministic(t *testing.T) {
	a := ChildSeed(42, 1, 2, 3)
	b := ChildSeed(42, 1, 2, 3)
	if a != b {
		t.Fatalf("ChildSeed not deterministic: %d != %d", a, b)
	}
}

func TestChildSeedDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		s := ChildSeed(7, i)
		if seen[s] {
			t.Fatalf("ChildSeed(7,%d) collides", i)
		}
		seen[s] = true
	}
	if ChildSeed(1, 2) == ChildSeed(2, 1) {
		t.Fatal("ChildSeed must distinguish (seed=1,id=2) from (seed=2,id=1)")
	}
}

func TestChildSeedOrderSensitive(t *testing.T) {
	if ChildSeed(9, 1, 2) == ChildSeed(9, 2, 1) {
		t.Fatal("ChildSeed must be order-sensitive in its ids")
	}
}

func TestNewDeterministicStreams(t *testing.T) {
	r1 := New(123)
	r2 := New(123)
	for i := 0; i < 100; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

func TestNewChildIndependence(t *testing.T) {
	// Streams from adjacent device ids must not be correlated copies.
	a := NewChild(5, 0)
	b := NewChild(5, 1)
	equal := 0
	const draws = 1000
	for i := 0; i < draws; i++ {
		if a.Intn(10) == b.Intn(10) {
			equal++
		}
	}
	// Expected ≈ 100 matches; flag gross correlation only.
	if equal > draws/2 {
		t.Fatalf("child streams look correlated: %d/%d equal draws", equal, draws)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	rng := New(1)
	weights := []float64{0, 0, 1, 0}
	for i := 0; i < 100; i++ {
		if got := Categorical(rng, weights); got != 2 {
			t.Fatalf("Categorical chose %d for one-hot weight vector", got)
		}
	}
}

func TestCategoricalZeroTotalFallsBackToUniform(t *testing.T) {
	rng := New(2)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[Categorical(rng, []float64{0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("uniform fallback skewed: index %d chosen %d/3000", i, c)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	rng := New(3)
	weights := []float64{1, 3}
	counts := make([]int, 2)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[Categorical(rng, weights)]++
	}
	frac := float64(counts[1]) / draws
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("weight-3 arm drawn %.3f of the time, want ≈0.75", frac)
	}
}

func TestCategoricalInRangeProperty(t *testing.T) {
	rng := New(4)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		ws := make([]float64, len(raw))
		for i, w := range raw {
			ws[i] = math.Abs(w)
			if math.IsNaN(ws[i]) || math.IsInf(ws[i], 0) {
				ws[i] = 1
			}
		}
		idx := Categorical(rng, ws)
		return idx >= 0 && idx < len(ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCoinProbability pins the coin flip the policies and environments
// make on this package's generator, rng.Float64() < p (Smart EXP3's
// exploration and greedy-phase coins, the wild model's mobility draw): it
// lands heads with probability p.
func TestCoinProbability(t *testing.T) {
	rng := New(5)
	heads := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if rng.Float64() < 0.25 {
			heads++
		}
	}
	frac := float64(heads) / draws
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("a p=0.25 coin landed heads %.3f of the time", frac)
	}
}

// TestShuffleAndPickPreserveElements pins that Shuffle only reorders, and
// that a uniform pick from Perm's order lands on an element of the input.
func TestShuffleAndPickPreserveElements(t *testing.T) {
	rng := New(6)
	xs := []int{1, 2, 3, 4, 5}
	Shuffle(rng, xs)
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 15 {
		t.Fatalf("Shuffle lost elements: %v", xs)
	}
	got := xs[Perm(rng, len(xs))[0]]
	found := false
	for _, x := range xs {
		if x == got {
			found = true
		}
	}
	if !found {
		t.Fatalf("picked %d, not an element of %v", got, xs)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := New(7)
	p := Perm(rng, 10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
