package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"smartexp3/internal/core"
)

func TestGenerateStylesProduceValidPairs(t *testing.T) {
	for _, style := range []Style{
		StyleAlternating, StyleCellularDominant, StyleCrossover, StyleBothVolatile,
	} {
		t.Run(style.String(), func(t *testing.T) {
			p := Generate(style, 100, 1)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if p.Slots() != 100 {
				t.Fatalf("slots = %d, want 100", p.Slots())
			}
			for tt := 0; tt < p.Slots(); tt++ {
				for _, r := range []float64{p.WiFi.Rates[tt], p.Cellular.Rates[tt]} {
					if r < 0.1 || r > 6.5 {
						t.Fatalf("rate %v at slot %d outside the paper's 0-6 Mbps band", r, tt)
					}
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(StyleCrossover, 100, 7)
	b := Generate(StyleCrossover, 100, 7)
	for tt := range a.WiFi.Rates {
		if a.WiFi.Rates[tt] != b.WiFi.Rates[tt] || a.Cellular.Rates[tt] != b.Cellular.Rates[tt] {
			t.Fatalf("generation not deterministic at slot %d", tt)
		}
	}
}

func TestCellularDominantInvariant(t *testing.T) {
	// Pair 2's defining property (Table VI): cellular is better in every
	// single slot.
	for seed := int64(1); seed <= 5; seed++ {
		p := Generate(StyleCellularDominant, 100, seed)
		for tt := 0; tt < p.Slots(); tt++ {
			if p.Cellular.Rates[tt] <= p.WiFi.Rates[tt] {
				t.Fatalf("seed %d slot %d: cellular %v ≤ wifi %v",
					seed, tt, p.Cellular.Rates[tt], p.WiFi.Rates[tt])
			}
		}
	}
}

func TestCrossoverHasNoDominantNetwork(t *testing.T) {
	p := Generate(StyleCrossover, 100, 3)
	wifiWins, cellWins := 0, 0
	for tt := 0; tt < p.Slots(); tt++ {
		if p.WiFi.Rates[tt] > p.Cellular.Rates[tt] {
			wifiWins++
		} else {
			cellWins++
		}
	}
	if wifiWins < 20 || cellWins < 20 {
		t.Fatalf("crossover trace is one-sided: wifi %d, cellular %d", wifiWins, cellWins)
	}
}

func TestPaperPairs(t *testing.T) {
	pairs := PaperPairs(1)
	if len(pairs) != 4 {
		t.Fatalf("want 4 pairs, got %d", len(pairs))
	}
	for i, p := range pairs {
		if p.Slots() != paperSlots {
			t.Fatalf("pair %d has %d slots, want %d", i, p.Slots(), paperSlots)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(StyleAlternating, 50, 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, orig.Name, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots() != orig.Slots() {
		t.Fatalf("round trip lost slots: %d → %d", orig.Slots(), got.Slots())
	}
	for tt := 0; tt < orig.Slots(); tt++ {
		if math.Abs(got.WiFi.Rates[tt]-orig.WiFi.Rates[tt]) > 1e-4 {
			t.Fatalf("wifi rate differs at slot %d", tt)
		}
		if math.Abs(got.Cellular.Rates[tt]-orig.Cellular.Rates[tt]) > 1e-4 {
			t.Fatalf("cellular rate differs at slot %d", tt)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"empty", ""},
		{"header only", "slot,wifi_mbps,cellular_mbps\n"},
		{"wrong field count", "slot,wifi_mbps,cellular_mbps\n0,1\n"},
		{"bad wifi number", "slot,wifi_mbps,cellular_mbps\n0,x,2\n"},
		{"bad cellular number", "slot,wifi_mbps,cellular_mbps\n0,1,x\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.give), "t", 15); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestPairAccessors(t *testing.T) {
	p := Pair{
		WiFi:     Trace{Rates: []float64{1, 2}},
		Cellular: Trace{Rates: []float64{3, 4, 5}},
	}
	if p.Slots() != 2 {
		t.Fatalf("Slots = %d, want min(2,3)=2", p.Slots())
	}
	if p.Rate(WiFiIndex, 1) != 2 || p.Rate(CellularIndex, 1) != 4 {
		t.Fatal("Rate accessor wrong")
	}
	if p.MaxRate() != 4 {
		t.Fatalf("MaxRate = %v, want 4 (within usable slots)", p.MaxRate())
	}
}

func TestValidateRejectsBadPairs(t *testing.T) {
	if err := (Pair{}).Validate(); err == nil {
		t.Fatal("empty pair must be invalid")
	}
	p := Pair{
		WiFi:     Trace{Rates: []float64{1, -1}},
		Cellular: Trace{Rates: []float64{1, 1}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("negative rates must be invalid")
	}
}

func TestRunDownloadsAndCostsAddUp(t *testing.T) {
	pair := Generate(StyleCrossover, 100, 4)
	res, err := Run(RunConfig{Pair: pair, Algorithm: core.AlgSmartEXP3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.DownloadMB <= 0 {
		t.Fatal("no download")
	}
	// download + switching loss must equal the no-delay counterfactual of
	// the same selection sequence.
	var ideal float64
	for tt, sel := range res.Selections {
		ideal += pair.Rate(sel, tt) * 15 / 8
	}
	if math.Abs(res.DownloadMB+res.SwitchCostMB-ideal) > 1e-6 {
		t.Fatalf("download %v + cost %v != ideal %v", res.DownloadMB, res.SwitchCostMB, ideal)
	}
	if len(res.RateMbps) != pair.Slots() {
		t.Fatalf("rate series has %d slots", len(res.RateMbps))
	}
}

func TestRunDeterministic(t *testing.T) {
	pair := Generate(StyleAlternating, 100, 6)
	cfg := RunConfig{Pair: pair, Algorithm: core.AlgSmartEXP3, Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DownloadMB != b.DownloadMB || a.Switches != b.Switches {
		t.Fatal("trace runs are not deterministic")
	}
}

func TestRunGreedyBarelySwitches(t *testing.T) {
	pair := Generate(StyleCellularDominant, 100, 7)
	res, err := Run(RunConfig{Pair: pair, Algorithm: core.AlgGreedy, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches > 5 {
		t.Fatalf("greedy switched %d times on a dominated pair", res.Switches)
	}
}

// TestDeviceChargesOnlySwitches drives a Device directly: a slot charges a
// delay exactly when the network changes, the delay stays within a slot
// even when the slot is shorter than the delay models' support, and
// Switches counts the changes.
func TestDeviceChargesOnlySwitches(t *testing.T) {
	const slotSeconds = 0.5
	dev, err := NewDevice(core.AlgEXP3, 3, slotSeconds, 6)
	if err != nil {
		t.Fatal(err)
	}
	last, switches, charged := -1, 0, 0
	for s := 0; s < 300; s++ {
		choice := dev.Select()
		delay := dev.Observe(choice, float64(1+choice))
		switched := last >= 0 && choice != last
		if switched {
			switches++
		}
		if delay < 0 || delay > slotSeconds {
			t.Fatalf("slot %d: delay %v outside [0, %v]", s, delay, slotSeconds)
		}
		if !switched && delay != 0 {
			t.Fatalf("slot %d: delay %v charged without a switch", s, delay)
		}
		if delay > 0 {
			charged++
		}
		last = choice
	}
	if dev.Switches != switches || switches == 0 {
		t.Fatalf("Switches = %d, counted %d changes", dev.Switches, switches)
	}
	if charged == 0 {
		t.Fatal("no switch was charged a delay")
	}
	if _, err := NewDevice(core.AlgCentralized, 1, slotSeconds, 6); err == nil {
		t.Fatal("want an error for a policy core.New refuses")
	}
}

func TestRunRejectsInvalidPair(t *testing.T) {
	if _, err := Run(RunConfig{Pair: Pair{}, Algorithm: core.AlgGreedy}); err == nil {
		t.Fatal("want error for empty pair")
	}
}

func TestSmartBeatsGreedyOnCrossover(t *testing.T) {
	// The core Table VI claim, at reduced scale: with a mid-trace
	// crossover, Smart EXP3's continued exploration beats Greedy's lock-in.
	pair := Generate(StyleCrossover, 100, 8)
	var smart, greedy float64
	const runs = 30
	for s := int64(0); s < runs; s++ {
		rs, err := Run(RunConfig{Pair: pair, Algorithm: core.AlgSmartEXP3, Seed: 100 + s})
		if err != nil {
			t.Fatal(err)
		}
		rg, err := Run(RunConfig{Pair: pair, Algorithm: core.AlgGreedy, Seed: 100 + s})
		if err != nil {
			t.Fatal(err)
		}
		smart += rs.DownloadMB
		greedy += rg.DownloadMB
	}
	if smart <= greedy {
		t.Fatalf("smart %.1f MB ≤ greedy %.1f MB on the crossover pair", smart/runs, greedy/runs)
	}
}
