package main

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// minTailSamples is the sample count a p99 needs: ten samples beyond it.
// A measured window with fewer latency samples fails the run rather than
// reporting a tail that one outlier decides.
const minTailSamples = 1000

const (
	// latSubBits sets the histogram resolution: 2^7 sub-buckets per power of
	// two bound a bucket's relative width at 1/128 (< 0.8%).
	latSubBits = 7
	latSub     = 1 << latSubBits
	latBuckets = ((64 - latSubBits) << latSubBits) + latSub
)

// latHist is a fixed-size log-linear histogram of non-negative nanosecond
// samples. Its memory does not grow with the number of samples, so a run
// that completes more operations does not report a larger heap. Observe is
// safe from several goroutines.
type latHist struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [latBuckets]atomic.Uint64
}

func latBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	exp := bits.Len64(u)
	if exp <= latSubBits {
		return int(u)
	}
	shift := uint(exp - latSubBits - 1)
	return ((exp - latSubBits) << latSubBits) | int((u>>shift)&(latSub-1))
}

// latBounds returns bucket i's inclusive value range.
func latBounds(i int) (lo, hi int64) {
	if i < latSub {
		return int64(i), int64(i)
	}
	octave := i >> latSubBits
	width := int64(1) << uint(octave-1)
	lo = (int64(latSub) + int64(i&(latSub-1))) * width
	return lo, lo + width - 1
}

func (h *latHist) observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[latBucket(int64(d))].Add(1)
}

func (h *latHist) n() uint64 { return h.count.Load() }

// mean returns the mean sample in nanoseconds, 0 with no samples.
func (h *latHist) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside the bucket that holds it, so it moves continuously with the data
// instead of snapping to bucket edges. With no samples it returns 0.
func (h *latHist) quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var seen float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= target {
			lo, hi := latBounds(i)
			frac := (target - seen) / c
			return float64(lo) + frac*float64(hi-lo+1)
		}
		seen += c
	}
	_, hi := latBounds(latBuckets - 1)
	return float64(hi)
}

// checkTail applies the sample-count rule to a window's latency samples.
func checkTail(what string, n uint64, min int) error {
	if n < uint64(min) {
		return fmt.Errorf("%s: %d latency samples, a p99 needs at least %d", what, n, min)
	}
	return nil
}

// summary is the spread of one metric over repeated runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`    // (max-min)/median
	IQR    float64 `json:"iqr_share"` // (q3-q1)/median
}

// summarize returns the median, the quartiles and (max-min)/median. The
// quartiles use the method of Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so the spreads printed here are the ones a
// reader computes from the same values.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out summary
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		out.Q1, out.Q3 = s[0], s[0]
	} else {
		quartile := func(i int) float64 {
			m := n + 1
			j := i * m / 4
			j = max(1, min(j, n-1))
			delta := float64(i*m - j*4)
			return (s[j-1]*(4-delta) + s[j]*delta) / 4
		}
		out.Q1, out.Q3 = quartile(1), quartile(3)
	}
	if out.Median != 0 {
		out.Spread = (s[len(s)-1] - s[0]) / out.Median
		out.IQR = (out.Q3 - out.Q1) / out.Median
	}
	return out
}
