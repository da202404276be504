package rngutil

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// The entire value of Source is stream identity with math/rand: every test
// here compares against rand.NewSource draw-for-draw.

func sourceSeeds() []int64 {
	return []int64{0, 1, -1, 42, 89482311, int32max, int32max + 1,
		-9137432789, 1 << 40, -(1 << 52), 7, 1_000_003}
}

func TestSourceMatchesStdlibUint64(t *testing.T) {
	for _, seed := range sourceSeeds() {
		std := rand.NewSource(seed).(rand.Source64)
		fast := NewSource(seed)
		for i := 0; i < 3000; i++ {
			if got, want := fast.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, stdlib %d", seed, i, got, want)
			}
		}
	}
}

func TestSourceMatchesStdlibInt63(t *testing.T) {
	for _, seed := range sourceSeeds() {
		std := rand.NewSource(seed)
		fast := NewSource(seed)
		for i := 0; i < 2000; i++ {
			if got, want := fast.Int63(), std.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d, stdlib %d", seed, i, got, want)
			}
		}
	}
}

func TestSourceReseedMatchesStdlib(t *testing.T) {
	std := rand.NewSource(1)
	fast := NewSource(1)
	for _, seed := range sourceSeeds() {
		std.Seed(seed)
		fast.Seed(seed)
		for i := 0; i < 700; i++ { // past one full table wrap
			if got, want := fast.Int63(), std.Int63(); got != want {
				t.Fatalf("reseed %d draw %d: %d, stdlib %d", seed, i, got, want)
			}
		}
	}
}

// TestRandMethodsMatchStdlib drives the full rand.Rand surface the
// simulator uses (Float64, NormFloat64, ExpFloat64, Intn, Perm, Shuffle)
// through both sources.
func TestRandMethodsMatchStdlib(t *testing.T) {
	for _, seed := range sourceSeeds() {
		std := rand.New(rand.NewSource(seed))
		fast := rand.New(NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := fast.Float64(), std.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %v vs %v", seed, g, w)
			}
			if g, w := fast.NormFloat64(), std.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 %v vs %v", seed, g, w)
			}
			if g, w := fast.ExpFloat64(), std.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 %v vs %v", seed, g, w)
			}
			if g, w := fast.Intn(97), std.Intn(97); g != w {
				t.Fatalf("seed %d: Intn %d vs %d", seed, g, w)
			}
		}
		gp, wp := fast.Perm(23), std.Perm(23)
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm diverges at %d", seed, i)
			}
		}
	}
}

func TestSeedAllMatchesIndividualSeed(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 11} {
		batch := make([]*Source, n)
		single := make([]*Source, n)
		seeds := make([]int64, n)
		for i := range batch {
			batch[i] = NewSource(999) // dirty state first
			for j := 0; j < i; j++ {
				batch[i].Uint64()
			}
			single[i] = &Source{}
			seeds[i] = ChildSeed(77, int64(i))
			single[i].Seed(seeds[i])
		}
		SeedAll(batch, seeds)
		for i := range batch {
			for k := 0; k < 1000; k++ {
				if g, w := batch[i].Uint64(), single[i].Uint64(); g != w {
					t.Fatalf("n=%d source %d draw %d: SeedAll %d, Seed %d", n, i, k, g, w)
				}
			}
		}
	}
}

func TestSeedAllLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SeedAll with mismatched lengths must panic")
		}
	}()
	SeedAll(make([]*Source, 2), make([]int64, 3))
}

// seedrandSchrage is the stdlib's form of the Lehmer step, kept here as
// the reference for seedrand's Mersenne reduction.
func seedrandSchrage(x int32) int32 {
	hi := x / 44488
	lo := x % 44488
	x = 48271*lo - 3399*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSourceFitsItsSizeClass pins Source at 24 B: two int32 cursors, the
// conditioned seed and a pointer to its 4,856 B ring, a separate object
// of the Go allocator's 4,864 B size class. A young source has no ring at
// all, so a serve.Store device record, which embeds its Source by value,
// pays 24 B for it until its 334th draw; serve's TestDeviceFitsItsSizeClass
// pins that record's own class. Widening a cursor to int makes Source 32
// B.
func TestSourceFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Source{}); got != 24 {
		t.Fatalf("Source is %d B, want 24 B (two int32 cursors, the seed and the ring pointer)", got)
	}
}

// TestSeedrandMatchesSchrage pins seedrand against the Schrage form on the
// edges of its domain [1, 2³¹−2] — the Schrage quotient boundaries 44487
// and 44488 among them — and on a million seeded random states.
func TestSeedrandMatchesSchrage(t *testing.T) {
	xs := []int32{1, 2, 3, 44487, 44488, 44489, 48271, 3399, 89482311,
		int32max / 48271, int32max/48271 + 1, 1 << 30, int32max - 2, int32max - 1}
	for _, x := range xs {
		if got, want := seedrand(x), seedrandSchrage(x); got != want {
			t.Fatalf("seedrand(%d) = %d, Schrage form %d", x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1_000_000; i++ {
		x := 1 + rng.Int31n(int32max-1) // [1, 2³¹−2]
		if got, want := seedrand(x), seedrandSchrage(x); got != want {
			t.Fatalf("seedrand(%d) = %d, Schrage form %d", x, got, want)
		}
	}
}

// TestMulmodMatchesRemainder pins mulmod's fold-only reduction against
// the % operator on every pair of domain edges, the largest products
// among them, and on a million seeded random pairs.
func TestMulmodMatchesRemainder(t *testing.T) {
	xs := []uint64{1, 2, 3, 48271, 1 << 30, 1<<30 + 1, 1 << 31 / 3, int32max / 2,
		int32max/2 + 1, int32max - 3, int32max - 2, int32max - 1}
	for _, a := range xs {
		for _, b := range xs {
			if got, want := mulmod(a, b), a*b%int32max; got != want {
				t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1_000_000; i++ {
		a, b := 1+uint64(rng.Int63n(int32max-1)), 1+uint64(rng.Int63n(int32max-1))
		if got, want := mulmod(a, b), a*b%int32max; got != want {
			t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// seedChain is the stdlib's seeding as a serial Lehmer chain — the form
// Source.Seed had before jump-ahead — kept here as the reference for it.
// It gives s a ring if s has none.
func seedChain(s *Source, seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
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

// complete computes every word a young source's ring lacks and sets the
// tap cursor where the draws so far leave it, so the source holds exactly
// the state the stdlib's eager seeding reaches after as many draws: every
// seeded word, with the feed updates of the draws made so far, slot 333
// down to feed, replayed over them. It gives s a ring if s has none. It
// lets the tests compare a young source with an eagerly seeded one word
// for word.
func (s *Source) complete() {
	if s.tap != unseeded {
		return
	}
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	feed := int(s.feed)
	seedRing(s.vec, uint64(s.seed))
	for i := seedingDraws - 1; i >= feed; i-- {
		s.vec[i] += s.vec[i+rngTap]
	}
	s.tap = int32((feed + rngTap) % rngLen)
}

// sameState reports whether two sources past seeding hold the same
// cursors and ring.
func sameState(a, b *Source) bool {
	return a.tap == b.tap && a.feed == b.feed && *a.vec == *b.vec
}

// TestJumpAheadSeedMatchesChain pins Seed's jump-ahead against the serial
// chain, comparing the full generator state once complete has computed
// the words Seed leaves to the draws: on the edges of seedInit's
// conditioning (zero, the modulus and its multiples, the int64 extremes,
// the stdlib's zero substitute), on random 64-bit seeds, and on a million
// consecutive states of one long chain.
func TestJumpAheadSeedMatchesChain(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max - 1, int32max, int32max + 1,
		2 * int32max, -int32max, 1 << 31 * int32max, -(1 << 31) * int32max,
		math.MinInt64, math.MaxInt64, 89482311}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10_000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	var jump, chain Source
	for _, seed := range seeds {
		jump.Seed(seed)
		jump.complete()
		seedChain(&chain, seed)
		if !sameState(&jump, &chain) {
			t.Fatalf("seed %d: jump-ahead state differs from the chain's", seed)
		}
	}

	// A seed in [1, 2³¹−2] is its own conditioned value, so seeding with
	// the kth state of a chain starts a chain equal to that one from k on:
	// each seed's reference state is read off the one walk.
	const n = 1_000_000
	walk := make([]int32, n+3*rngLen+20)
	walk[0] = seedInit(rng.Int63())
	for k := 1; k < len(walk); k++ {
		walk[k] = seedrand(walk[k-1])
	}
	// The seeds are split across GOMAXPROCS goroutines, each with its own
	// Source, to keep the check cheap under the race detector.
	parts := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var src Source
			for k := lo; k < hi; k++ {
				if err := matchesWalk(&src, walk[k:]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p*n/parts, (p+1)*n/parts)
	}
	wg.Wait()
}

// matchesWalk seeds src with walk[0], completes its ring, and compares its
// state with the one the chain walk[0], walk[1], ... gives.
func matchesWalk(src *Source, walk []int32) error {
	src.Seed(int64(walk[0]))
	src.complete()
	if src.tap != 0 || src.feed != rngLen-rngTap {
		return fmt.Errorf("seed %d: cursors %d, %d", walk[0], src.tap, src.feed)
	}
	c := walk[21 : 21+3*rngLen]
	for i := range src.vec {
		x := c[3*i : 3*i+3 : 3*i+3]
		want := int64(uint64(x[0])<<40 ^ uint64(x[1])<<20 ^ uint64(x[2]) ^ additiveTab[i])
		if src.vec[i] != want {
			return fmt.Errorf("seed %d: vec[%d] = %d, chain gives %d", walk[0], i, src.vec[i], want)
		}
	}
	return nil
}

// TestOnDemandSeedMatchesChainAtEveryDrawCount pins the young draws and
// the maturing one against eager seeding after every draw count through
// two ring lengths: a completed copy of a source n draws past Seed exports
// the state the serial chain's source has n draws past its seeding, and
// the 607 draws after the export match that source's. The draw counts
// are split across GOMAXPROCS goroutines, each with its own sources.
func TestOnDemandSeedMatchesChainAtEveryDrawCount(t *testing.T) {
	const counts = 2 * rngLen // n in [0, 1,214]
	for _, seed := range []int64{0, 1, -1, 42, int32max, 1 << 40} {
		parts := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				var lazy, done, ref Source
				var got, want SourceState
				for n := lo; n < hi; n++ {
					lazy.Seed(seed)
					seedChain(&ref, seed)
					for i := 0; i < n; i++ {
						lazy.Uint64()
						ref.Uint64()
					}
					lazy.ExportState(&got) // copied through its state, so done has a ring of its own
					done.SetState(got)
					done.complete()
					done.ExportState(&got)
					ref.ExportState(&want)
					if got != want {
						t.Errorf("seed %d: state after %d draws differs from the chain's", seed, n)
						return
					}
					for i := 0; i < rngLen; i++ {
						if g, w := lazy.Uint64(), ref.Uint64(); g != w {
							t.Errorf("seed %d: draw %d after exporting at %d: %d, chain gives %d", seed, i, n, g, w)
							return
						}
					}
				}
			}(p*(counts+1)/parts, (p+1)*(counts+1)/parts)
		}
		wg.Wait()
	}
}

// TestExportMidSeedingKeepsTheStream exports a source's state before
// every one of its first two ring lengths of draws, through and past its
// 334th, and checks that its stream stays the stdlib's.
func TestExportMidSeedingKeepsTheStream(t *testing.T) {
	var st SourceState
	src, std := NewSource(8), rand.NewSource(8).(rand.Source64)
	for i := 0; i < 2*rngLen; i++ {
		src.ExportState(&st)
		if g, w := src.Uint64(), std.Uint64(); g != w {
			t.Fatalf("draw %d is %d, stdlib %d", i, g, w)
		}
	}
}

// TestSeedAndSetStateOverPartlySeededRings reseeds a source while it is
// young and after it has matured, and restores a ring state over one at
// the same points: each then follows the stream it was given.
func TestSeedAndSetStateOverPartlySeededRings(t *testing.T) {
	for _, drawn := range []int{0, 1, 100, 273, 333, 334, 700} {
		src := NewSource(3)
		for i := 0; i < drawn; i++ {
			src.Uint64()
		}
		src.Seed(4)
		std := rand.NewSource(4).(rand.Source64)
		for i := 0; i < 2*rngLen; i++ {
			if g, w := src.Uint64(), std.Uint64(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d is %d, stdlib %d", drawn, i, g, w)
			}
		}

		// Capture a source 1,000 draws in, then restore it over one
		// seeded `drawn` draws ago.
		want := NewSource(5)
		for i := 0; i < 1000; i++ {
			want.Uint64()
		}
		var st SourceState
		want.ExportState(&st)
		src.Seed(6)
		for i := 0; i < drawn; i++ {
			src.Uint64()
		}
		src.SetState(st)
		if src.tap == unseeded {
			t.Fatalf("restored after %d draws: the ring is still marked unseeded", drawn)
		}
		for i := 0; i < 2*rngLen; i++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("restored after %d draws: draw %d is %d, want %d", drawn, i, g, w)
			}
		}
	}
}

// TestRingIsAllocatedAtTheSourcesMaturing pins when a Source allocates its
// ring. A Source embedded by value, which starts with none, makes its
// first 333 draws without allocating and allocates the ring at its 334th;
// reseeded, it keeps that ring and matures again without allocating. So
// a NewSource, whose ring is reserved, allocates on no draw.
func TestRingIsAllocatedAtTheSourcesMaturing(t *testing.T) {
	const runs = 20
	fresh := make([]Source, 2*(runs+1)) // ringless; each measured call takes the next
	seedAndDraw := func(s *Source, n int) {
		s.Seed(int64(n))
		for i := 0; i < n; i++ {
			s.Uint64()
		}
	}
	for _, c := range []struct {
		draws int
		want  float64
	}{{seedingDraws - 1, 0}, {seedingDraws, 1}} {
		allocs := testing.AllocsPerRun(runs, func() {
			seedAndDraw(&fresh[0], c.draws)
			fresh = fresh[1:]
		})
		if allocs != c.want {
			t.Fatalf("a ringless source's first %d draws allocate %.2f objects, want %.0f", c.draws, allocs, c.want)
		}
	}

	matured := new(Source)
	seedAndDraw(matured, 2*rngLen)
	if allocs := testing.AllocsPerRun(runs, func() { seedAndDraw(matured, 2*rngLen) }); allocs != 0 {
		t.Fatalf("a matured source, reseeded, allocates %.2f objects maturing again, want 0", allocs)
	}
	if NewSource(1).vec == nil || NewSources(3)[2].vec == nil {
		t.Fatal("NewSource or NewSources left a ring to the 334th draw")
	}
}

// TestCompactSetStateIsConstantTime restores compact states into a Source
// with no ring: no restore allocates, and restoring 333 draws costs less
// than a tenth of making them, so none is replayed. Each cost is the
// fastest of five timed loops, which keeps the host's noise out of it.
func TestCompactSetStateIsConstantTime(t *testing.T) {
	var src Source
	var st SourceState
	ahead := NewSource(31)
	for i := 0; i < seedingDraws-1; i++ {
		ahead.Uint64()
	}
	ahead.ExportState(&st)
	if st.Seed == 0 || st.Draws != seedingDraws-1 {
		t.Fatalf("a source 333 draws in exports seed %d and %d draws", st.Seed, st.Draws)
	}
	if allocs := testing.AllocsPerRun(100, func() { src.SetState(st) }); allocs != 0 {
		t.Fatalf("a compact SetState allocates %.0f objects, want 0", allocs)
	}
	if src.vec != nil {
		t.Fatal("a compact SetState gave the source a ring")
	}
	fastest := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			for range 200 {
				f()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	restore := fastest(func() { src.SetState(st) })
	replay := fastest(func() {
		src.Seed(31)
		for i := 0; i < seedingDraws-1; i++ {
			src.Uint64()
		}
	})
	if restore*10 > replay {
		t.Fatalf("restoring 333 draws takes %v, making them %v: the restore replays them", restore, replay)
	}
	std := rand.NewSource(31).(rand.Source64)
	for i := 0; i < seedingDraws-1; i++ {
		std.Uint64()
	}
	src.SetState(st)
	for i := 0; i < rngLen; i++ {
		if g, w := src.Uint64(), std.Uint64(); g != w {
			t.Fatalf("draw %d after the restore is %d, stdlib %d", i, g, w)
		}
	}
}
