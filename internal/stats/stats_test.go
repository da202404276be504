package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{5}, want: 5},
		{name: "mixed", give: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", give: []float64{-2, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Fatalf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "odd", give: []float64{3, 1, 2}, want: 2},
		{name: "even", give: []float64{4, 1, 3, 2}, want: 2.5},
		{name: "unsorted input unchanged", give: []float64{9, 1}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.give); got != tt.want {
				t.Fatalf("Median(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("StdDev of constants = %v, want 0", got)
	}
	got := StdDev([]float64{1, 3})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("StdDev([1,3]) = %v, want 1 (population)", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want min", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v, want max", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Fatalf("q0.25 = %v, want 2.5", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(qa), 1)
		b := math.Mod(math.Abs(qb), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedianMatchesSortBasedOracle(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		got := Median(xs)
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	if got := Min([]float64{3, -1, 2}); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max([]float64{3, -1, 2}); got != 3 {
		t.Fatalf("Max = %v", got)
	}
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Fatalf("Min(nil) = %v, want +Inf", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Median != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatalf("Summarize(nil).N = %d", got.N)
	}
}

func TestSeriesMean(t *testing.T) {
	s := NewSeries(3)
	s.AddRun([]float64{1, 2, 3})
	s.AddRun([]float64{3, 4, 5})
	got := s.Mean()
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Mean()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSeriesUnequalRunLengths(t *testing.T) {
	s := NewSeries(3)
	s.AddRun([]float64{1, 1, 1})
	s.AddRun([]float64{3}) // shorter run contributes only slot 0
	got := s.Mean()
	if got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("unexpected mean %v", got)
	}
}

func TestSeriesIgnoresOutOfRange(t *testing.T) {
	s := NewSeries(2)
	s.Add(-1, 9)
	s.Add(2, 9)
	s.Add(0, 5)
	got := s.Mean()
	if got[0] != 5 || got[1] != 0 {
		t.Fatalf("unexpected mean %v", got)
	}
}

// TestDownsample pins that a per-slot series' mean, the form every long
// series takes before it is rendered, is a copy: rendering code may
// rewrite it without disturbing the series.
func TestDownsample(t *testing.T) {
	s := NewSeries(6)
	s.AddRun([]float64{0, 1, 2, 3, 4, 5})
	got := s.Mean()
	want := []float64{0, 1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Mean = %v, want %v", got, want)
		}
	}
	got[0] = 99
	if again := s.Mean(); again[0] != 0 {
		t.Fatal("Series.Mean must copy, not alias")
	}
}

// TestFractionBelow pins the order statistic the tables report, the
// interpolated q-quantile of n values: the ⌊q(n−1)⌋+1 smallest lie at or
// below it (2 of {1, 5, 10} at or below the median), and an empty sample
// reads 0.
func TestFractionBelow(t *testing.T) {
	xs := []float64{10, 1, 5}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v, below := Quantile(xs, q), 0
		for _, x := range xs {
			if x <= v {
				below++
			}
		}
		if want := int(math.Floor(q*float64(len(xs)-1))) + 1; below < want {
			t.Fatalf("%d of %v at or below the %v-quantile %v, want at least %d", below, xs, q, v, want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v", got)
	}
}
