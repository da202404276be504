// Package stats provides the descriptive statistics used throughout the
// evaluation: medians and quantiles (Tables IV–VII), standard deviations
// (Figures 2, 5), and mean time series with per-slot aggregation across runs
// (Figures 4, 7–9, 11, 13–15).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (the paper's
// fairness metric is the spread of per-device downloads within one run, a
// full population, not a sample).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Median returns the median of xs without modifying it, or 0 for an empty
// slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It copies xs, leaving the input
// unmodified, and returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	minVal := math.Inf(1)
	for _, x := range xs {
		if x < minVal {
			minVal = x
		}
	}
	return minVal
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	maxVal := math.Inf(-1)
	for _, x := range xs {
		if x > maxVal {
			maxVal = x
		}
	}
	return maxVal
}

// Summary holds the aggregate statistics reported in the paper's tables.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Median float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Median: Median(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// Series accumulates per-slot values across runs and yields the per-slot
// mean: the quantity plotted in the paper's distance-to-NE figures.
type Series struct {
	sums   []float64
	counts []int
}

// NewSeries creates a Series with capacity for slots entries.
func NewSeries(slots int) *Series {
	return &Series{
		sums:   make([]float64, slots),
		counts: make([]int, slots),
	}
}

// Add accumulates value v for slot t. Out-of-range slots are ignored so that
// runs of differing lengths can share a Series.
func (s *Series) Add(t int, v float64) {
	if t < 0 || t >= len(s.sums) {
		return
	}
	s.sums[t] += v
	s.counts[t]++
}

// AddRun accumulates one run's per-slot values.
func (s *Series) AddRun(values []float64) {
	for t, v := range values {
		s.Add(t, v)
	}
}

// Len returns the number of slots the series covers.
func (s *Series) Len() int { return len(s.sums) }

// Mean returns the per-slot mean across everything accumulated. Slots that
// received no values are 0.
func (s *Series) Mean() []float64 {
	out := make([]float64, len(s.sums))
	for t, sum := range s.sums {
		if s.counts[t] > 0 {
			out[t] = sum / float64(s.counts[t])
		}
	}
	return out
}
