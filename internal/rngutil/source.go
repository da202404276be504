package rngutil

import "math/rand"

// This file reimplements math/rand's default generator — the additive
// lagged-Fibonacci source behind rand.NewSource — with one capability the
// standard library lacks: seeding many sources at once. Seeding is the
// dominant cost of a short Monte Carlo replication (each Seed walks a
// ~1800-step sequential Lehmer chain, ~10µs), and a simulation needs one
// independent stream per device per replication. The chains of different
// streams are independent, so seeding k sources in lockstep lets the CPU
// overlap k dependency chains and retires several seeds in the time one
// takes (see SeedAll).
//
// The streams are bit-identical to math/rand's: Source reproduces the
// generator state exactly, which the test suite verifies draw-for-draw
// against rand.NewSource across seeds, reseeds and every consuming method.
// The stdlib's baked-in additive table is not copied here; it is recovered
// once at process start by running a stdlib source and inverting its
// additive mixing (see recoverAdditiveTable), so this stays correct by
// construction against the installed standard library.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// seedrand is the Lehmer step x ← 48271·x mod 2³¹−1, the seed-expansion
// recurrence of the stdlib generator. The stdlib computes it in Schrage
// form, with a division and a remainder; here the modulus being the
// Mersenne number 2³¹−1 lets the 47-bit product fold as hi·2³¹ + lo ≡
// hi + lo, and one conditional subtract finishes the reduction. Both give
// the same value for every x in [1, 2³¹−2], the only states seedInit and
// the recurrence produce.
func seedrand(x int32) int32 {
	p := 48271 * uint64(x)
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return int32(r)
}

// seedInit conditions a 64-bit seed into the Lehmer state domain exactly as
// the stdlib does.
func seedInit(seed int64) int32 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// additiveTab is the stdlib generator's per-slot additive constant table,
// recovered from math/rand itself at process start.
var additiveTab = recoverAdditiveTable()

// recoverAdditiveTable derives the stdlib's cooked table. A freshly seeded
// rngSource holds vec[i] = chain(seed)[i] ^ tab[i], and its first 607
// Uint64 outputs are sums of vec slots that can be inverted back to vec
// (each slot is written exactly once in the first pass, and every tap it is
// summed with is either still pristine or equal to an earlier output). With
// vec recovered and chain(seed) recomputable from seedrand, the table
// follows by XOR.
func recoverAdditiveTable() [rngLen]uint64 {
	const probe = 0x5eed5eed
	src := rand.NewSource(probe).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}

	// Output k (1-based) adds vec[feedₖ] and vec[tapₖ] with feed starting
	// at rngLen−rngTap and tap at 0, both stepping downward mod rngLen.
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen-rngTap; k++ {
		// tap slot was rewritten rngTap outputs ago: vec = oₖ − oₖ₋₂₇₃.
		vec[rngLen-rngTap-k] = out[k-1] - out[k-rngTap-1]
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ {
		// feed has wrapped; the written slot is in the upper region.
		vec[2*rngLen-rngTap-k] = out[k-1] - out[k-rngTap-1]
	}
	for k := 1; k <= rngTap; k++ {
		// Both operands were pristine; the upper one is now known.
		vec[rngLen-rngTap-k] = out[k-1] - vec[rngLen-k]
	}

	x := seedInit(probe)
	for i := -20; i < 0; i++ {
		x = seedrand(x)
	}
	var tab [rngLen]uint64
	for i := 0; i < rngLen; i++ {
		x1 := seedrand(x)
		x2 := seedrand(x1)
		x3 := seedrand(x2)
		x = x3
		chain := uint64(x1)<<40 ^ uint64(x2)<<20 ^ uint64(x3)
		tab[i] = vec[i] ^ chain
	}
	return tab
}

// Source is a drop-in, stream-identical replacement for rand.NewSource
// that additionally supports batched reseeding (SeedAll). It implements
// rand.Source64. Like the stdlib source, it is not safe for concurrent use.
type Source struct {
	vec       [rngLen]int64
	tap, feed int
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a source whose stream is bit-identical to
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := seedInit(seed)
	for i := -20; i < 0; i++ {
		x = seedrand(x)
	}
	for i := 0; i < rngLen; i++ {
		x1 := seedrand(x)
		x2 := seedrand(x1)
		x3 := seedrand(x2)
		x = x3
		s.vec[i] = int64(uint64(x1)<<40 ^ uint64(x2)<<20 ^ uint64(x3) ^ additiveTab[i])
	}
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// SeedAll reseeds srcs[i] with seeds[i], running four seed chains in
// lockstep. Each chain is a strictly sequential integer recurrence, so a
// single Seed is latency-bound; interleaving independent chains keeps the
// CPU's ALUs fed and retires a batch of seeds in a fraction of the serial
// time. The per-source state is identical to calling Seed individually.
func SeedAll(srcs []*Source, seeds []int64) {
	if len(srcs) != len(seeds) {
		panic("rngutil: SeedAll length mismatch")
	}
	i := 0
	for ; i+4 <= len(srcs); i += 4 {
		seed4(srcs[i:i+4:i+4], seeds[i:i+4:i+4])
	}
	for ; i < len(srcs); i++ {
		srcs[i].Seed(seeds[i])
	}
}

// seed4 seeds four sources in lockstep (see SeedAll).
func seed4(srcs []*Source, seeds []int64) {
	var x [4]int32
	for j, s := range srcs {
		s.tap = 0
		s.feed = rngLen - rngTap
		x[j] = seedInit(seeds[j])
	}
	for i := -20; i < 0; i++ {
		x[0] = seedrand(x[0])
		x[1] = seedrand(x[1])
		x[2] = seedrand(x[2])
		x[3] = seedrand(x[3])
	}
	s0, s1, s2, s3 := srcs[0], srcs[1], srcs[2], srcs[3]
	for i := 0; i < rngLen; i++ {
		tab := additiveTab[i]
		a1 := seedrand(x[0])
		b1 := seedrand(x[1])
		c1 := seedrand(x[2])
		d1 := seedrand(x[3])
		a2 := seedrand(a1)
		b2 := seedrand(b1)
		c2 := seedrand(c1)
		d2 := seedrand(d1)
		a3 := seedrand(a2)
		b3 := seedrand(b2)
		c3 := seedrand(c2)
		d3 := seedrand(d2)
		x[0], x[1], x[2], x[3] = a3, b3, c3, d3
		s0.vec[i] = int64(uint64(a1)<<40 ^ uint64(a2)<<20 ^ uint64(a3) ^ tab)
		s1.vec[i] = int64(uint64(b1)<<40 ^ uint64(b2)<<20 ^ uint64(b3) ^ tab)
		s2.vec[i] = int64(uint64(c1)<<40 ^ uint64(c2)<<20 ^ uint64(c3) ^ tab)
		s3.vec[i] = int64(uint64(d1)<<40 ^ uint64(d2)<<20 ^ uint64(d3) ^ tab)
	}
}
