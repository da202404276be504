package scenario

import (
	"bytes"
	"strings"
	"testing"

	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/sim"
)

const sampleJSON = `{
  "name": "dynamic-join",
  "description": "9 devices join mid-run",
  "networks": [
    {"name": "wlan-4", "type": "wifi", "bandwidthMbps": 4},
    {"name": "wlan-7", "type": "wifi", "bandwidthMbps": 7},
    {"name": "cell-22", "type": "cellular", "bandwidthMbps": 22}
  ],
  "devices": [
    {"algorithm": "smart", "count": 11},
    {"algorithm": "smart", "count": 9, "join": 400, "leave": 800}
  ],
  "slots": 1200,
  "seed": 7
}`

func TestReadAndToConfig(t *testing.T) {
	sc, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "dynamic-join" {
		t.Fatalf("name = %q", sc.Name)
	}
	cfg, err := sc.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Devices) != 20 {
		t.Fatalf("count expansion gave %d devices, want 20", len(cfg.Devices))
	}
	if cfg.Devices[11].Join != 400 || cfg.Devices[11].Leave != 800 {
		t.Fatalf("transient device spec wrong: %+v", cfg.Devices[11])
	}
	if cfg.Topology.Networks[2].Type != netmodel.Cellular {
		t.Fatal("cellular type not parsed")
	}
	if len(cfg.Topology.Areas) != 1 || len(cfg.Topology.Areas[0]) != 3 {
		t.Fatalf("default single area wrong: %v", cfg.Topology.Areas)
	}
}

func TestScenarioRunsEndToEnd(t *testing.T) {
	sc, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	sc.Slots = 150
	sc.Devices[0].Count = 4
	sc.Devices[1].Count = 2
	sc.Devices[1].Join = 50
	sc.Devices[1].Leave = 100
	cfg, err := sc.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Devices) != 6 {
		t.Fatalf("got %d devices", len(res.Devices))
	}
}

func TestRoundTrip(t *testing.T) {
	cfg := sim.Config{
		Topology: netmodel.FoodCourt(),
		Devices: []sim.DeviceSpec{
			{Algorithm: core.AlgSmartEXP3, Trajectory: []sim.AreaStay{
				{FromSlot: 0, Area: 0}, {FromSlot: 100, Area: 2},
			}},
			{Algorithm: core.AlgGreedy, Join: 10},
		},
		Slots: 300,
		Seed:  3,
	}
	sc := FromConfig("roundtrip", cfg)
	var buf bytes.Buffer
	if err := Write(&buf, sc); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := back.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg2.Devices) != len(cfg.Devices) {
		t.Fatalf("device count changed: %d → %d", len(cfg.Devices), len(cfg2.Devices))
	}
	if cfg2.Devices[0].Trajectory[1].Area != 2 {
		t.Fatalf("trajectory lost: %+v", cfg2.Devices[0].Trajectory)
	}
	if cfg2.Topology.Networks[0].Type != netmodel.Cellular {
		t.Fatal("network type lost")
	}
	if cfg2.Slots != 300 || cfg2.Seed != 3 {
		t.Fatalf("scalars lost: %+v", cfg2)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
}

func TestToConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"no networks", Scenario{Name: "x", Slots: 10}, "network"},
		{"bad type", Scenario{
			Name:     "x",
			Networks: []Network{{Name: "n", Type: "lte", Bandwidth: 1}},
			Devices:  []Device{{Algorithm: "smart"}},
			Slots:    10,
		}, "type"},
		{"bad algorithm", Scenario{
			Name:     "x",
			Networks: []Network{{Name: "n", Type: "wifi", Bandwidth: 1}},
			Devices:  []Device{{Algorithm: "sarsa"}},
			Slots:    10,
		}, "algorithm"},
		{"invalid sim config", Scenario{
			Name:     "x",
			Networks: []Network{{Name: "n", Type: "wifi", Bandwidth: 1}},
			Devices:  []Device{{Algorithm: "smart"}},
			Slots:    0,
		}, "slots"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.sc.ToConfig()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %v, want mention of %q", err, tt.want)
			}
		})
	}
}

// TestAlgorithmNamesComplete pins the algorithm vocabulary scenarios
// rely on: each of core's 9 algorithms has a short name of its own, and
// that name round-trips through a one-device Scenario — ToConfig parses it
// to the same algorithm, FromConfig writes the same name back.
func TestAlgorithmNamesComplete(t *testing.T) {
	algs := core.Algorithms()
	if len(algs) != 9 {
		t.Fatalf("%d algorithms, want 9", len(algs))
	}
	seen := make(map[string]core.Algorithm)
	for _, alg := range algs {
		name := alg.ShortName()
		if prev, dup := seen[name]; dup {
			t.Fatalf("%v and %v share the name %q", prev, alg, name)
		}
		seen[name] = alg
		sc := &Scenario{
			Name:     name,
			Networks: []Network{{Name: "wlan", Type: "wifi", Bandwidth: 4}},
			Devices:  []Device{{Algorithm: name}},
			Slots:    10,
		}
		cfg, err := sc.ToConfig()
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if len(cfg.Devices) != 1 || cfg.Devices[0].Algorithm != alg {
			t.Fatalf("%q parsed to %+v, want one %v device", name, cfg.Devices, alg)
		}
		back := FromConfig(name, cfg)
		if len(back.Devices) != 1 || back.Devices[0].Algorithm != name {
			t.Fatalf("%v wrote back as %+v, want one %q device", alg, back.Devices, name)
		}
	}
}
