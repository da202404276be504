package rngutil

import "math/rand"

// This file reimplements math/rand's default generator — the additive
// lagged-Fibonacci source behind rand.NewSource — with one capability the
// standard library lacks: cheap reseeding. Seeding is a fixed cost of
// every Monte Carlo replication, which needs one independent stream per
// device per replication, and of every serve join. The stdlib walks a
// 1,841-step sequential Lehmer chain per seed and fills all 607 ring
// words. Here each ring word is computed from the seed directly, with
// three multiplications by precomputed powers of the multiplier, and no
// word is stored until the ring is needed: Seed records the conditioned
// seed and nothing else, each of the first 333 draws is a closed-form sum
// of two or three seeded words, and the 334th fills the ring. A device
// that draws 128 times per replication computes 256 words and writes none
// (BenchmarkSourceSeed: ~2 ns; the eager jump-ahead took ~3.3 µs and the
// stdlib chain ~6.8 µs on a 2-vCPU Xeon), and a source that never draws
// 334 times need not hold a ring at all (see Source).
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

	// seedingDraws counts the draws from a Seed to the one that fills the
	// ring, the draw that steps feed to slot 0. The draws before it need
	// no ring.
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
// A Source is 24 B: two int32 cursors (ints would make it 32 B), the
// conditioned seed, and its 607-word ring out of line behind vec, a
// separate 4,856 B object in the allocator's 4,864 B size class. A young
// source, fewer than 334 draws past its Seed, reads and writes no ring:
// its tap cursor is unseeded, a value no ring state has, and feed counts
// its draws down from 334 as it always does. So until then the seed and
// the draw count are the whole state, and that pair is what ExportState
// exports. The 334th draw fills the ring, allocating it if vec is nil, and
// the source runs as a seeded one from there. NewSource and NewSources
// reserve each ring up front; a Source embedded by value, as a
// serve.Store device record embeds one, starts without one, and most such
// sources never draw 334 times. Seed keeps the ring, so a reused source
// allocates at most once in its life. The zero Source holds no state a
// stream reaches: Seed it, or SetState it, before its first draw. A copy
// of a Source shares its ring, so a stream is copied through ExportState
// and SetState, not by value.
type Source struct {
	tap, feed int32
	seed      int64 // the conditioned seed of a young source
	vec       *[rngLen]int64
}

// unseeded is the tap cursor of a young source, whose ring holds nothing
// of its stream.
const unseeded = -1

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a source whose stream is bit-identical to
// rand.NewSource(seed). Its ring is reserved up front, so no draw of it
// allocates.
func NewSource(seed int64) *Source {
	s := &Source{vec: new([rngLen]int64)}
	s.Seed(seed)
	return s
}

// NewSources returns n sources with their rings reserved, in two
// allocations whatever n is, for a pool of streams that are reseeded in
// place and drawn through many times, as sim.Workspace's are. Seed each
// before drawing from it.
func NewSources(n int) []Source {
	srcs := make([]Source, n)
	rings := make([][rngLen]int64, n)
	for i := range srcs {
		srcs[i].vec = &rings[i]
	}
	return srcs
}

// Seed implements rand.Source. It computes no ring word: it records the
// conditioned seed and marks the source young, keeping any ring it holds
// for the 334th draw to refill.
func (s *Source) Seed(seed int64) {
	s.tap = unseeded
	s.feed = seedingDraws
	s.seed = int64(seedInit(seed))
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

// seedRing sets every word of v as the stdlib's seeding from the
// conditioned seed x sets it: word i XORs three states of the Lehmer chain
// from the seed, x_{21+3i} to x_{23+3i}, with additiveTab[i]. Each state
// is the seed times its power in seedPow, so a word costs three
// independent products and no walk.
func seedRing(v *[rngLen]int64, x uint64) {
	for i := range v {
		p := &seedPow[i]
		v[i] = int64(mulmod(x, uint64(p[0]))<<40 ^ mulmod(x, uint64(p[1]))<<20 ^
			mulmod(x, uint64(p[2])) ^ additiveTab[i])
	}
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
// does once every 607 draws and on every draw of a young source.
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
	v := s.vec
	x := v[feed] + v[tap]
	v[feed] = x
	return uint64(x), true
}

// drawSlow takes the draws draw declines. On a seeded ring it wraps the tap
// cursor and draws. On a young source it makes draw k of the first 333
// from the seed alone, in closed form. Draw k of a freshly seeded ring
// adds the word in tap slot 607−k into feed slot 334−k, which no draw has
// touched. For k ≤ 273 the tap slot is untouched too. Otherwise it is the
// feed slot of draw k−273, whose two slots, 607−k and 880−k, were both
// untouched. So draw k is the sum of the seeded words 334−k, 607−k and,
// for k > 273, 880−k: the ring's slots from feed upward in steps of 273.
func (s *Source) drawSlow() uint64 {
	if s.tap != unseeded {
		s.tap = rngLen
		x, _ := s.draw()
		return x
	}
	feed := int(s.feed) - 1
	if feed == 0 {
		return s.mature()
	}
	s.feed = int32(feed)
	x, seed := int64(0), uint64(s.seed)
	// Each word is computed as seedRing computes it, written out here
	// because a call per word made the first 128 draws ~10% slower.
	for i := feed; i < rngLen; i += rngTap {
		p := &seedPow[i]
		x += int64(mulmod(seed, uint64(p[0]))<<40 ^ mulmod(seed, uint64(p[1]))<<20 ^
			mulmod(seed, uint64(p[2])) ^ additiveTab[i])
	}
	return uint64(x)
}

// mature makes draw 334, which ends a young source. It fills the ring with
// the seeded words, allocating it if the source has none, and replays the
// 334 draws' feed updates, slot 333 down to slot 0, each adding the word
// 273 slots above it, the later feed slots among them already updated.
// The ring then stands where a seeded one does after 334 draws, tap at
// slot 273 and feed at slot 0, and slot 0 holds draw 334's output.
func (s *Source) mature() uint64 {
	v := s.vec
	if v == nil {
		v = new([rngLen]int64)
		s.vec = v
	}
	seedRing(v, uint64(s.seed))
	for i := seedingDraws - 1; i >= 0; i-- {
		v[i] += v[i+rngTap]
	}
	s.tap, s.feed = rngTap, 0
	return uint64(v[0])
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
