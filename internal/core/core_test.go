package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"smartexp3/internal/rngutil"
)

func TestAlgorithmString(t *testing.T) {
	tests := []struct {
		give Algorithm
		want string
	}{
		{AlgEXP3, "EXP3"},
		{AlgBlockEXP3, "Block EXP3"},
		{AlgHybridBlockEXP3, "Hybrid Block EXP3"},
		{AlgSmartEXP3NoReset, "Smart EXP3 w/o Reset"},
		{AlgSmartEXP3, "Smart EXP3"},
		{AlgGreedy, "Greedy"},
		{AlgFullInformation, "Full Information"},
		{AlgFixedRandom, "Fixed Random"},
		{AlgCentralized, "Centralized"},
		{Algorithm(99), "Algorithm(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestAlgorithmsComplete(t *testing.T) {
	if len(Algorithms()) != 9 {
		t.Fatalf("Algorithms() lists %d entries, want 9", len(Algorithms()))
	}
}

// TestParseAlgorithmRoundTrips pins the flag and JSON vocabulary: every
// algorithm's short name parses back to it, and nothing else parses.
func TestParseAlgorithmRoundTrips(t *testing.T) {
	want := []string{"exp3", "block", "hybrid", "smartnr", "smart", "greedy", "fullinfo", "fixed", "centralized"}
	for i, a := range Algorithms() {
		if got := a.ShortName(); got != want[i] {
			t.Errorf("%v.ShortName() = %q, want %q", a, got, want[i])
		}
		if got, ok := ParseAlgorithm(want[i]); !ok || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", want[i], got, ok, a)
		}
	}
	for _, name := range []string{"", "Smart", "smart exp3", "Algorithm(0)"} {
		if a, ok := ParseAlgorithm(name); ok {
			t.Errorf("ParseAlgorithm(%q) = %v, want no match", name, a)
		}
	}
	if got := Algorithm(0).ShortName(); got != "" {
		t.Errorf("Algorithm(0).ShortName() = %q, want empty", got)
	}
}

func TestFeaturesFor(t *testing.T) {
	if f := FeaturesFor(AlgEXP3); f != (Features{}) {
		t.Fatalf("EXP3 features = %+v, want all off", f)
	}
	if f := FeaturesFor(AlgBlockEXP3); !f.Blocking || f.Greedy {
		t.Fatalf("Block EXP3 features = %+v", f)
	}
	full := FeaturesFor(AlgSmartEXP3)
	if !(full.Blocking && full.ExploreFirst && full.Greedy && full.SwitchBack &&
		full.Reset && full.NetworkChange) {
		t.Fatalf("Smart EXP3 features = %+v, want all on", full)
	}
	noReset := FeaturesFor(AlgSmartEXP3NoReset)
	if noReset.Reset {
		t.Fatal("Smart EXP3 w/o Reset must not reset")
	}
}

func TestFeaturesForPanicsOnNonFamily(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for Greedy")
		}
	}()
	FeaturesFor(AlgGreedy)
}

func TestDecayingGamma(t *testing.T) {
	if got := DecayingGamma(1); got != 1 {
		t.Fatalf("gamma(1) = %v, want 1", got)
	}
	if got := DecayingGamma(8); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("gamma(8) = %v, want 0.5", got)
	}
	if got := DecayingGamma(0); got != 1 {
		t.Fatalf("gamma(0) = %v, want clamped to 1", got)
	}
	prev := 2.0
	for b := 1; b < 100; b++ {
		g := DecayingGamma(b)
		if g <= 0 || g > 1 || g >= prev && b > 1 {
			t.Fatalf("gamma(%d) = %v not strictly decreasing in (0,1]", b, g)
		}
		prev = g
	}
}

func TestBlockLengthFormula(t *testing.T) {
	tests := []struct {
		beta float64
		x    int
		want int
	}{
		{0.1, 0, 1},
		{0.1, 1, 2}, // ceil(1.1)
		{0.1, 2, 2}, // ceil(1.21)
		{0.1, 8, 3}, // ceil(2.14...)
		{0.1, 39, 42 /* ceil(1.1^39)=41.14→42 */},
		{1.0, 3, 8},
	}
	for _, tt := range tests {
		if got := BlockLength(tt.beta, tt.x); got != tt.want {
			t.Errorf("BlockLength(%v,%d) = %d, want %d", tt.beta, tt.x, got, tt.want)
		}
	}
}

func TestBlockLengthMonotoneProperty(t *testing.T) {
	f := func(xRaw uint8) bool {
		x := int(xRaw % 80)
		return BlockLength(0.1, x+1) >= BlockLength(0.1, x) && BlockLength(0.1, x) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{name: "default valid", mutate: func(*Config) {}},
		{name: "beta zero", mutate: func(c *Config) { c.Beta = 0 }, wantErr: "beta"},
		{name: "beta too big", mutate: func(c *Config) { c.Beta = 1.5 }, wantErr: "beta"},
		{name: "nil gamma", mutate: func(c *Config) { c.Gamma = nil }, wantErr: "gamma"},
		{name: "bad reset prob", mutate: func(c *Config) { c.ResetProbability = 0 }, wantErr: "reset"},
		{name: "bad window", mutate: func(c *Config) { c.SwitchBackWindow = 0 }, wantErr: "window"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error %v, want mention of %q", err, tt.wantErr)
			}
		})
	}
}

func TestNewConstructsEveryPerDeviceAlgorithm(t *testing.T) {
	for _, alg := range Algorithms() {
		if alg == AlgCentralized {
			continue
		}
		pol, err := New(alg, []int{0, 1, 2}, DefaultConfig(), rngutil.New(1))
		if err != nil {
			t.Fatalf("New(%v) error: %v", alg, err)
		}
		if pol.Name() != alg.String() {
			t.Fatalf("New(%v).Name() = %q", alg, pol.Name())
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(AlgCentralized, []int{0}, DefaultConfig(), rngutil.New(1)); err == nil {
		t.Fatal("centralized must not build a per-device policy")
	}
	if _, err := New(AlgSmartEXP3, nil, DefaultConfig(), rngutil.New(1)); err == nil {
		t.Fatal("want error for empty availability")
	}
	if _, err := New(AlgSmartEXP3, []int{0}, DefaultConfig(), nil); err == nil {
		t.Fatal("want error for nil rng")
	}
	if _, err := New(AlgSmartEXP3, []int{0}, Config{}, rngutil.New(1)); err == nil {
		t.Fatal("want error for zero config")
	}
	if _, err := New(Algorithm(42), []int{0}, DefaultConfig(), rngutil.New(1)); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

// driveConstGains runs a policy for the given number of slots with
// per-network constant gains and returns the per-network selection counts.
func driveConstGains(t *testing.T, pol Policy, gains map[int]float64, slots int) map[int]int {
	t.Helper()
	counts := make(map[int]int)
	for i := 0; i < slots; i++ {
		net := pol.Select()
		g, ok := gains[net]
		if !ok {
			t.Fatalf("policy selected unavailable network %d", net)
		}
		counts[net]++
		pol.Observe(g)
	}
	return counts
}
