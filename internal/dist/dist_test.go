package dist

import (
	"math"
	"math/rand"
	"testing"

	"smartexp3/internal/rngutil"
)

// samplerCases enumerates every sampler the package exports, including the
// Section II-B default delay models.
func samplerCases() []struct {
	name string
	s    Sampler
} {
	return []struct {
		name string
		s    Sampler
	}{
		{"constant", Constant{Value: 1.5}},
		{"uniform", Uniform{Low: 0.5, High: 2.5}},
		{"exponential", Exponential{MeanValue: 2}},
		{"normal", Normal{Mu: 3, Sigma: 0.5}},
		{"johnson-su", JohnsonSU{Gamma: 0.2982, Delta: 1.0639, Loc: 0.2054, Scale: 0.5479}},
		{"student-t", StudentT{DF: 0.4393, Loc: 0.4957, Scale: 0.0598}},
		{"truncated", Truncated{S: Normal{Mu: 1, Sigma: 2}, Low: 0, High: SlotSeconds}},
		{"default-wifi", DefaultWiFiDelay()},
		{"default-cellular", DefaultCellularDelay()},
	}
}

// TestSamplersSeededDeterminism: every sampler is a pure function of its
// rng, so one seed must reproduce the identical sample sequence.
func TestSamplersSeededDeterminism(t *testing.T) {
	for _, tc := range samplerCases() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := rngutil.New(42), rngutil.New(42)
			for i := 0; i < 1000; i++ {
				x, y := tc.s.Sample(a), tc.s.Sample(b)
				if x != y {
					t.Fatalf("sample %d diverged: %v vs %v", i, x, y)
				}
			}
		})
	}
}

// TestDelayModelsBounded: the delay models must produce physical delays —
// non-negative and never longer than the 15 s slot.
func TestDelayModelsBounded(t *testing.T) {
	bounded := []struct {
		name string
		s    Sampler
	}{
		{"constant-zero", Constant{Value: 0}},
		{"truncated", Truncated{S: Normal{Mu: 1, Sigma: 2}, Low: 0, High: SlotSeconds}},
		{"default-wifi", DefaultWiFiDelay()},
		{"default-cellular", DefaultCellularDelay()},
	}
	for _, tc := range bounded {
		t.Run(tc.name, func(t *testing.T) {
			rng := rngutil.New(7)
			for i := 0; i < 20000; i++ {
				x := tc.s.Sample(rng)
				if x < 0 || x > SlotSeconds {
					t.Fatalf("sample %d out of [0,%d]: %v", i, SlotSeconds, x)
				}
			}
		})
	}
}

// TestSampleMeansMatchConfiguredMeans: for every sampler with an analytic
// expectation, the large-sample mean must sit within tolerance of Mean().
func TestSampleMeansMatchConfiguredMeans(t *testing.T) {
	const n = 200000
	for _, tc := range samplerCases() {
		m, ok := tc.s.(Meaner)
		if !ok {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			rng := rngutil.New(11)
			var sum float64
			for i := 0; i < n; i++ {
				sum += tc.s.Sample(rng)
			}
			got, want := sum/n, m.Mean()
			tol := 0.02 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("sample mean %v, configured mean %v (tolerance %v)", got, want, tol)
			}
		})
	}
}

// TestDefaultDelayMeansPlausible pins the Section II-B shapes: WiFi
// switching costs a couple of seconds on average, cellular under a second
// at the median mass (its heavy tail is clipped by the slot).
func TestDefaultDelayMeansPlausible(t *testing.T) {
	mean := func(s Sampler, seed int64) float64 {
		rng := rngutil.New(seed)
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += s.Sample(rng)
		}
		return sum / n
	}
	if m := mean(DefaultWiFiDelay(), 3); m < 0.1 || m > 5 {
		t.Fatalf("WiFi delay mean %v s, want within (0.1, 5)", m)
	}
	if m := mean(DefaultCellularDelay(), 4); m < 0.1 || m > 5 {
		t.Fatalf("cellular delay mean %v s, want within (0.1, 5)", m)
	}
}

// TestTruncatedClampFallback: an underlying distribution that never lands
// inside the bounds must clamp instead of stalling.
func TestTruncatedClampFallback(t *testing.T) {
	rng := rngutil.New(1)
	if x := (Truncated{S: Constant{Value: 40}, Low: 0, High: 15}).Sample(rng); x != 15 {
		t.Fatalf("clamped high sample = %v, want 15", x)
	}
	if x := (Truncated{S: Constant{Value: -3}, Low: 0, High: 15}).Sample(rng); x != 0 {
		t.Fatalf("clamped low sample = %v, want 0", x)
	}
}

// TestJohnsonSUAnalyticMean cross-checks the closed form against a
// numerically independent shape (symmetric: Gamma=0 gives mean = Loc).
func TestJohnsonSUAnalyticMean(t *testing.T) {
	j := JohnsonSU{Gamma: 0, Delta: 2, Loc: 1.25, Scale: 3}
	if got := j.Mean(); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("symmetric Johnson S_U mean = %v, want Loc = 1.25", got)
	}
}

// oddSampler is a Sampler SampleInto does not know, so it takes the
// dynamic-dispatch branch.
type oddSampler struct{}

func (oddSampler) Sample(rng *rand.Rand) float64 { return rng.Float64() - rng.Float64() }

// TestSampleIntoMatchesSample pins SampleInto's promise that batching
// leaves every stream unchanged: each dst[i] has the bits s.Sample(rngs[i])
// would have returned, and afterwards each stream sits where per-stream
// sampling leaves it. Truncated Johnson S_U cases are also checked against
// truncated, the rejection loop without the early z test. They put the lower bound's z in both branches of
// math.Sinh (|arg| below and above 0.5, and past 21), use degenerate and
// NaN parameters and Low = −Inf, and include windows the draw almost never
// hits, so every sample takes all 64 attempts and clamps.
func TestSampleIntoMatchesSample(t *testing.T) {
	wifi := JohnsonSU{Gamma: 0.2982, Delta: 1.0639, Loc: 0.2054, Scale: 0.5479}
	trunc := func(s Sampler, low, high float64) Truncated { return Truncated{S: s, Low: low, High: high} }
	cases := samplerCases()
	for _, c := range []struct {
		name string
		s    Sampler
	}{
		{"dispatch", oddSampler{}},
		{"truncated-dispatch", trunc(oddSampler{}, 0, 0.5)},
		{"truncated-student-t-clamp", trunc(StudentT{DF: 0.4393, Loc: 0.4957, Scale: 0.0598}, 900, 901)},
		{"su-small-arg", trunc(wifi, 0, SlotSeconds)},
		{"su-large-negative-arg", trunc(JohnsonSU{Gamma: 0.3, Delta: 1.1, Loc: 1, Scale: 0.5}, 0, SlotSeconds)},
		{"su-large-positive-arg", trunc(JohnsonSU{Gamma: -1.5, Delta: 0.9, Loc: 0, Scale: 1}, 2, 40)},
		{"su-exp-branch", trunc(JohnsonSU{Gamma: 23.72, Delta: 1, Loc: 0, Scale: 1}, -1e10, 1e12)},
		{"su-boundary-at-loc", trunc(JohnsonSU{Gamma: 0, Delta: 1, Loc: 3, Scale: 2}, 3, 9)},
		{"su-zero-scale", trunc(JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0.5, Scale: 0}, 0, 1)},
		{"su-negative-scale", trunc(JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0.5, Scale: -0.5}, 0, 2)},
		{"su-zero-delta", trunc(JohnsonSU{Gamma: 0.3, Delta: 0, Loc: 0.5, Scale: 0.5}, 0, 2)},
		{"su-negative-delta", trunc(JohnsonSU{Gamma: 0.3, Delta: -1.2, Loc: 0.5, Scale: 0.5}, 0, 2)},
		{"su-nan-gamma", trunc(JohnsonSU{Gamma: math.NaN(), Delta: 1, Loc: 0.5, Scale: 0.5}, 0, 2)},
		{"su-nan-loc", trunc(JohnsonSU{Gamma: 0.3, Delta: 1, Loc: math.NaN(), Scale: 0.5}, 0, 2)},
		{"su-nan-low", trunc(wifi, math.NaN(), 2)},
		{"su-low-minus-inf", trunc(wifi, math.Inf(-1), 2)},
		{"su-high-clamp", trunc(wifi, 50, 51)},
		{"su-low-clamp", trunc(wifi, -100, -99)},
		{"su-narrow-window-clamp", trunc(wifi, 1, 1+1e-12)},
	} {
		cases = append(cases, c)
	}
	const streams, rounds = 16, 400
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, su := tc.s.(Truncated)
			if su {
				_, su = tr.S.(JohnsonSU)
			}
			batch := make([]*rand.Rand, streams)
			single := make([]*rand.Rand, streams)
			plain := make([]*rand.Rand, streams)
			for i := range batch {
				batch[i] = rngutil.New(int64(1000 + i))
				single[i] = rngutil.New(int64(1000 + i))
				plain[i] = rngutil.New(int64(1000 + i))
			}
			dst := make([]float64, streams)
			for r := 0; r < rounds; r++ {
				SampleInto(tc.s, batch, dst)
				for i := range dst {
					want := tc.s.Sample(single[i])
					if !same(dst[i], want) {
						t.Fatalf("round %d stream %d: SampleInto %v, Sample %v", r, i, dst[i], want)
					}
					if su {
						if ref := truncated(tr.S.Sample, tr.Low, tr.High, plain[i]); !same(want, ref) {
							t.Fatalf("round %d stream %d: Sample %v, full rejection loop %v", r, i, want, ref)
						}
					}
				}
			}
			for i := range batch {
				a, b := batch[i].Int63(), single[i].Int63()
				if a != b {
					t.Fatalf("stream %d ends at a different position: next draw %d after SampleInto, %d after Sample", i, a, b)
				}
				if su {
					if c := plain[i].Int63(); c != b {
						t.Fatalf("stream %d ends at a different position: next draw %d after Sample, %d after the full rejection loop", i, b, c)
					}
				}
			}
		})
	}
}

// TestJohnsonSUEarlyRejectionIsExact walks the float64 values of z just
// below each bound zBelow returns, and a grid far below it, and requires
// every one to map to X < Low: no draw the shortcut rejects could have
// been accepted.
func TestJohnsonSUEarlyRejectionIsExact(t *testing.T) {
	for _, tc := range []struct {
		j   JohnsonSU
		low float64
	}{
		{JohnsonSU{Gamma: 0.2982, Delta: 1.0639, Loc: 0.2054, Scale: 0.5479}, 0},
		{JohnsonSU{Gamma: 0.3, Delta: 1.1, Loc: 1, Scale: 0.5}, 0},
		{JohnsonSU{Gamma: -1.5, Delta: 0.9, Loc: 0, Scale: 1}, 2},
		{JohnsonSU{Gamma: 23.72, Delta: 1, Loc: 0, Scale: 1}, -1e10},
		{JohnsonSU{Gamma: 0, Delta: 1, Loc: 3, Scale: 2}, 3},
		{JohnsonSU{Gamma: 1e6, Delta: 1e-3, Loc: 1e9, Scale: 1e-4}, 1e9 + 1},
		{JohnsonSU{Gamma: 0, Delta: 1e-90, Loc: 0, Scale: 1e-90}, 1e-95},
	} {
		zLo := tc.j.zBelow(tc.low)
		if math.IsInf(zLo, -1) {
			t.Errorf("%+v, low %v: no bound", tc.j, tc.low)
			continue
		}
		z := zLo
		for i := 0; i < 200000; i++ {
			z = math.Nextafter(z, math.Inf(-1))
			if x := tc.j.at(z); !(x < tc.low) {
				t.Fatalf("%+v: z = %v below zLo = %v maps to %v, not below low %v", tc.j, z, zLo, x, tc.low)
			}
		}
		for d := 1e-9; d < 1e3; d *= 1.01 {
			if x := tc.j.at(zLo - d); !(x < tc.low) {
				t.Fatalf("%+v: z = %v below zLo = %v maps to %v, not below low %v", tc.j, zLo-d, zLo, x, tc.low)
			}
		}
	}
	for _, tc := range []struct {
		name string
		j    JohnsonSU
		low  float64
	}{
		{"zero scale", JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0.5, Scale: 0}, 0},
		{"tiny scale", JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0, Scale: 1e-200}, 0},
		{"negative delta", JohnsonSU{Gamma: 0.3, Delta: -1, Loc: 0.5, Scale: 1}, 0},
		{"NaN gamma", JohnsonSU{Gamma: math.NaN(), Delta: 1, Loc: 0.5, Scale: 1}, 0},
		{"low -Inf", JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0.5, Scale: 1}, math.Inf(-1)},
		{"low +Inf", JohnsonSU{Gamma: 0.3, Delta: 1, Loc: 0.5, Scale: 1}, math.Inf(1)},
	} {
		if zLo := tc.j.zBelow(tc.low); !math.IsInf(zLo, -1) {
			t.Errorf("%s: bound %v, want none", tc.name, zLo)
		}
	}
}

// TestWiFiDelaySkipsSinhForLowDraws counts, over the default WiFi delay
// model, how many rejection attempts the early z test settles without a
// sinh. The counting loop must track Truncated.Sample draw for draw.
func TestWiFiDelaySkipsSinhForLowDraws(t *testing.T) {
	w := DefaultWiFiDelay().(Truncated)
	j := w.S.(JohnsonSU)
	zLo := j.zBelow(w.Low)
	count, sampled := rngutil.New(5), rngutil.New(5)
	const n = 100000
	attempts, skipped := 0, 0
	for s := 0; s < n; s++ {
		var x float64
		for i := 0; i < maxTruncAttempts; i++ {
			attempts++
			z := count.NormFloat64()
			if z < zLo && i < maxTruncAttempts-1 {
				skipped++
				continue
			}
			if x = j.at(z); x >= w.Low && x <= w.High {
				break
			}
		}
		if got := w.Sample(sampled); got != x {
			t.Fatalf("sample %d: counting loop %v, Truncated.Sample %v", s, x, got)
		}
	}
	share := float64(skipped) / float64(attempts)
	t.Logf("zLo %.6f: %d samples, %d attempts (%.3f per sample), %d settled without sinh (%.1f%%)",
		zLo, n, attempts, float64(attempts)/n, skipped, 100*share)
	if share < 0.40 || share > 0.52 {
		t.Fatalf("%.1f%% of attempts skip sinh, want about 46%%", 100*share)
	}
}
