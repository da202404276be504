// Package rngutil provides seeded, splittable pseudo-random number helpers.
//
// Every stochastic component of the reproduction (policies, delay samplers,
// trace generators, simulated noise) draws from a *rand.Rand handed to it
// explicitly, so that a run is a pure function of its seed. rngutil
// centralizes how child seeds are derived so that adding a device to a
// simulation does not perturb the random streams of the existing devices.
package rngutil

import (
	"math/rand"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is the standard seed-expansion function (Steele et al., 2014):
// it maps correlated inputs (seed, 0), (seed, 1), ... to statistically
// independent outputs.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ChildSeed deterministically derives an independent seed for the sub-stream
// identified by ids (for example run index, then device index).
func ChildSeed(seed int64, ids ...int64) int64 {
	x := uint64(seed)
	for _, id := range ids {
		x = splitMix64(x ^ splitMix64(uint64(id)))
	}
	return int64(x)
}

// New returns a new deterministic generator for the given seed. It is
// backed by this package's Source, whose stream is bit-identical to
// rand.NewSource's (see source.go), so results are unchanged from a
// stdlib-backed generator.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// NewChild returns a generator seeded from ChildSeed(seed, ids...).
func NewChild(seed int64, ids ...int64) *rand.Rand {
	return New(ChildSeed(seed, ids...))
}

// Perm returns a random permutation of n ints using rng.
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// Shuffle shuffles xs in place using rng.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector ws. If the total weight is zero it falls back to
// a uniform draw.
func Categorical(rng *rand.Rand, ws []float64) int {
	var total float64
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		return rng.Intn(len(ws))
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range ws {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(ws) - 1
}
