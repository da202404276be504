// Package scenario serializes simulation scenarios as JSON so that custom
// experiments can be defined declaratively (cmd/simulate -config) and shared
// alongside results. A scenario fully describes a sim.Config except for the
// collection options, which remain the caller's choice.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/sim"
)

// Scenario is the JSON schema for a simulation run.
type Scenario struct {
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Networks    []Network `json:"networks"`
	// Areas lists, per service area, the indices of visible networks; it
	// may be omitted for a single area seeing every network.
	Areas       [][]int  `json:"areas,omitempty"`
	Devices     []Device `json:"devices"`
	Slots       int      `json:"slots"`
	SlotSeconds float64  `json:"slotSeconds,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	NoiseStdDev float64  `json:"noiseStdDev,omitempty"`
	// Groups optionally partitions devices for per-group distance series.
	Groups [][]int `json:"groups,omitempty"`
}

// Network mirrors netmodel.Network with a JSON-friendly type name.
type Network struct {
	Name      string  `json:"name"`
	Type      string  `json:"type"` // "wifi" or "cellular"
	Bandwidth float64 `json:"bandwidthMbps"`
}

// Device mirrors sim.DeviceSpec with algorithm names instead of enums.
type Device struct {
	// Algorithm is one of: exp3, block, hybrid, smartnr, smart, greedy,
	// fullinfo, fixed, centralized.
	Algorithm string `json:"algorithm"`
	// Count expands this entry into that many identical devices (default 1).
	Count int `json:"count,omitempty"`
	Join  int `json:"join,omitempty"`
	Leave int `json:"leave,omitempty"`
	// Moves lists {fromSlot, area} trajectory legs.
	Moves []Move `json:"moves,omitempty"`
}

// Move is one trajectory leg.
type Move struct {
	FromSlot int `json:"fromSlot"`
	Area     int `json:"area"`
}

// Read parses a scenario from JSON.
func Read(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	return &sc, nil
}

// Write serializes the scenario as indented JSON.
func Write(w io.Writer, sc *Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	return nil
}

// ToConfig converts the scenario into a runnable simulation config.
func (sc *Scenario) ToConfig() (sim.Config, error) {
	var cfg sim.Config
	if len(sc.Networks) == 0 {
		return cfg, fmt.Errorf("scenario %q: at least one network is required", sc.Name)
	}
	top := netmodel.Topology{Areas: sc.Areas}
	for i, n := range sc.Networks {
		var typ netmodel.Type
		switch n.Type {
		case "wifi", "":
			typ = netmodel.WiFi
		case "cellular":
			typ = netmodel.Cellular
		default:
			return cfg, fmt.Errorf("scenario %q: network %d has unknown type %q", sc.Name, i, n.Type)
		}
		top.Networks = append(top.Networks, netmodel.Network{
			Name:      n.Name,
			Type:      typ,
			Bandwidth: n.Bandwidth,
		})
	}
	if len(top.Areas) == 0 {
		all := make([]int, len(top.Networks))
		for i := range all {
			all[i] = i
		}
		top.Areas = [][]int{all}
	}

	var devices []sim.DeviceSpec
	for i, d := range sc.Devices {
		alg, ok := core.ParseAlgorithm(d.Algorithm)
		if !ok {
			return cfg, fmt.Errorf("scenario %q: device %d has unknown algorithm %q", sc.Name, i, d.Algorithm)
		}
		count := d.Count
		if count <= 0 {
			count = 1
		}
		spec := sim.DeviceSpec{Algorithm: alg, Join: d.Join, Leave: d.Leave}
		for _, m := range d.Moves {
			spec.Trajectory = append(spec.Trajectory, sim.AreaStay{FromSlot: m.FromSlot, Area: m.Area})
		}
		for c := 0; c < count; c++ {
			devices = append(devices, spec)
		}
	}

	cfg = sim.Config{
		Topology:     top,
		Devices:      devices,
		Slots:        sc.Slots,
		SlotSeconds:  sc.SlotSeconds,
		Seed:         sc.Seed,
		NoiseStdDev:  sc.NoiseStdDev,
		DeviceGroups: sc.Groups,
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return cfg, nil
}

// FromConfig builds a Scenario from a simulation config (the inverse of
// ToConfig, up to device grouping by count).
func FromConfig(name string, cfg sim.Config) *Scenario {
	sc := &Scenario{
		Name:        name,
		Slots:       cfg.Slots,
		SlotSeconds: cfg.SlotSeconds,
		Seed:        cfg.Seed,
		NoiseStdDev: cfg.NoiseStdDev,
		Areas:       cfg.Topology.Areas,
		Groups:      cfg.DeviceGroups,
	}
	for _, n := range cfg.Topology.Networks {
		sc.Networks = append(sc.Networks, Network{
			Name:      n.Name,
			Type:      n.Type.String(),
			Bandwidth: n.Bandwidth,
		})
	}
	for _, d := range cfg.Devices {
		dev := Device{
			Algorithm: d.Algorithm.ShortName(),
			Join:      d.Join,
			Leave:     d.Leave,
		}
		for _, leg := range d.Trajectory {
			dev.Moves = append(dev.Moves, Move{FromSlot: leg.FromSlot, Area: leg.Area})
		}
		sc.Devices = append(sc.Devices, dev)
	}
	return sc
}
