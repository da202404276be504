package rngutil

import "math/rand"

// This file reimplements math/rand's default generator — the additive
// lagged-Fibonacci source behind rand.NewSource — with one capability the
// standard library lacks: cheap reseeding. Seeding is a fixed cost of
// every Monte Carlo replication, which needs one independent stream per
// device per replication, and of every serve join. The stdlib walks a
// 1,841-step sequential Lehmer chain per seed and fills all 607 ring
// words. Here each ring word is computed from the seed directly, with
// three multiplications by precomputed powers of the multiplier, and only
// when it is first read: Seed records the conditioned seed and nothing
// else, and each of the first 334 draws computes the one or two words it
// reads. A device that draws 128 times per replication computes 256 of
// the 607 words and never pays for the rest (BenchmarkSourceSeed: ~2 ns;
// the eager jump-ahead took ~3.3 µs and the stdlib chain ~6.8 µs on a
// 2-vCPU Xeon).
//
// The streams are bit-identical to math/rand's: Source reproduces the
// generator state exactly, which the test suite verifies draw-for-draw
// against rand.NewSource across seeds, reseeds and every consuming method,
// and state for state against the serial chain after every draw count.
// The stdlib's baked-in additive table is not copied here; it is recovered
// once at process start by running a stdlib source and inverting its
// additive mixing (see recoverAdditiveTable), so this stays correct by
// construction against the installed standard library.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedingDraws is how many draws after a Seed the ring stays seeded on
	// demand: the draws until feed reaches slot 0.
	seedingDraws = rngLen - rngTap
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
// with cheaper reseeding (Seed). It implements rand.Source64. Like the
// stdlib source, it is not safe for concurrent use.
//
// The cursors are int32, which holds every ring index, so that the struct
// is 4,864 B, exactly one of the allocator's size classes. Int cursors
// would make it 4,872 B, which the allocator rounds up to the 5,376 B
// class: 512 B more for every stream a sim.Workspace pools. SourceState
// keeps int cursors, so streams and encoded snapshots do not depend on
// this choice. The cursors come first, so a host that embeds a Source
// after other hot state (a serve.Store device record does) reads them on
// the cache line next to that state, not 4,856 B away.
//
// From a Seed until its 334th draw the ring is seeded on demand (drawSlow).
// The tap cursor is then unseeded, a value no seeded ring has; feed counts
// those draws down as it always does; and vec[0], the last slot they
// reach, holds the conditioned seed the missing words are computed from.
// So until then the seed and the draw count are the whole state, and that
// pair is what ExportState exports.
type Source struct {
	tap, feed int32
	vec       [rngLen]int64
}

// unseeded is the tap cursor of a ring that Seed left to be computed on
// demand.
const unseeded = -1

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a source whose stream is bit-identical to
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source. It computes no ring word: it records the
// conditioned seed in vec[0] and marks the ring unseeded, and the first
// 334 draws compute each word as they first read it. After them every
// slot has been read or written and the source runs as a seeded one.
func (s *Source) Seed(seed int64) {
	s.tap = unseeded
	s.feed = rngLen - rngTap
	s.vec[0] = int64(seedInit(seed))
}

// seedPow[i][j] is 48271^(21+3i+j) mod 2³¹−1: the multiplier that takes a
// conditioned seed to the (21+3i+j)th state of its Lehmer chain, the first
// twenty states being discarded by the stdlib.
var seedPow = seedPowers()

func seedPowers() [rngLen][3]uint32 {
	var pow [rngLen][3]uint32
	x := int32(1)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range pow {
		for j := range pow[i] {
			x = seedrand(x)
			pow[i][j] = uint32(x)
		}
	}
	return pow
}

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2], with seedrand's
// Mersenne folding and no final subtract. Each fold keeps the residue.
// The first takes the product, below 2⁶², to at most 2³²−2, the second
// that to at most 2³¹−1, and the only values reaching those bounds
// (2⁶²−1, and 2³¹−1 or 2³²−2 after the first fold) are multiples of the
// prime 2³¹−1, which no product of a and b is. So the result is already in
// [1, 2³¹−2].
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	return r&int32max + r>>31
}

// Uint64 implements rand.Source64. The warm draw is inlined; the first 334
// draws after a Seed and the tap cursor's wrap take drawSlow.
func (s *Source) Uint64() uint64 {
	if x, ok := s.draw(); ok {
		return x
	}
	return s.drawSlow()
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	if x, ok := s.draw(); ok {
		return int64(x & rngMask)
	}
	return int64(s.drawSlow() & rngMask)
}

// draw is the warm draw: both cursors step down one slot, and the word
// under feed becomes its sum with the word under tap. It declines, leaving
// the source as it was, when the tap cursor would step below 0, which it
// does once every 607 draws and on every draw of an unseeded ring.
func (s *Source) draw() (uint64, bool) {
	tap := s.tap - 1
	if tap < 0 {
		return 0, false
	}
	feed := s.feed - 1
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x), true
}

// drawSlow takes the draws draw declines. On a seeded ring it wraps the tap
// cursor and draws. On an unseeded one it makes draw k of the first 334:
// feed steps to slot 334−k, which no draw has touched yet, and tap stands
// at slot 607−k, which the draws have not touched for k ≤ 273 and which
// draw k−273 wrote as its feed slot otherwise. An untouched word is
// computed before it is read. Draw 334 computes slot 0, reading the seed
// out of it first, and sets tap where a seeded ring has it after 334
// draws, which ends the unseeded state.
func (s *Source) drawSlow() uint64 {
	if s.tap != unseeded {
		s.tap = rngLen
		x, _ := s.draw()
		return x
	}
	seed := uint64(s.vec[0])
	feed := int(s.feed) - 1
	tap := feed + rngTap
	top := feed
	if tap >= rngLen-rngTap {
		top = tap
	}
	// The feed word, then the tap word if untouched: word i is the
	// stdlib's seeding of it, which XORs three states of the Lehmer chain
	// from the seed, x_{21+3i} to x_{23+3i}, with additiveTab[i]. Each state
	// is the seed times its power in seedPow, so a word costs three
	// independent products and no walk. The loop is written out here
	// because a call per draw made the first 128 draws ~25% slower.
	for i := feed; i <= top; i += rngTap {
		p := &seedPow[i]
		s.vec[i] = int64(mulmod(seed, uint64(p[0]))<<40 ^ mulmod(seed, uint64(p[1]))<<20 ^
			mulmod(seed, uint64(p[2])) ^ additiveTab[i])
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	s.feed = int32(feed)
	if feed == 0 {
		s.tap = int32(tap)
	}
	return uint64(x)
}

// SeedAll reseeds srcs[i] with seeds[i]: the per-source state is identical
// to calling Seed individually.
func SeedAll(srcs []*Source, seeds []int64) {
	if len(srcs) != len(seeds) {
		panic("rngutil: SeedAll length mismatch")
	}
	for i, s := range srcs {
		s.Seed(seeds[i])
	}
}
