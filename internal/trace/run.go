package trace

import (
	"fmt"
	"math/rand"

	"smartexp3/internal/core"
	"smartexp3/internal/dist"
	"smartexp3/internal/rngutil"
)

// RunConfig parameterizes one trace-driven run: a single device repeatedly
// choosing between the pair's WiFi and cellular networks, observing the
// traced bit rate of whichever it selects (Section VI-B).
type RunConfig struct {
	Pair      Pair
	Algorithm core.Algorithm
	Seed      int64
}

// RunResult is the outcome of one trace-driven run.
type RunResult struct {
	// DownloadMB is the cumulative goodput in megabytes (Table VI).
	DownloadMB float64
	// SwitchCostMB is the data forgone while re-associating: bit rate times
	// switching delay, in megabytes (Table VI's "Cost").
	SwitchCostMB float64
	// Switches counts network changes.
	Switches int
	// Selections holds the chosen network per slot (WiFiIndex or
	// CellularIndex).
	Selections []int
	// RateMbps holds the selected network's traced bit rate per slot — the
	// "bit rate of Smart EXP3" series of Figure 12.
	RateMbps []float64
}

// Device is one device choosing between a WiFi and a cellular network
// (WiFiIndex and CellularIndex), the slot step of the trace-driven run and
// of the in-the-wild download. It owns the policy, the policy's random
// stream and the Section II-B switching-delay models.
type Device struct {
	policy      core.Policy
	rng         *rand.Rand
	wifiDelay   dist.Sampler
	cellDelay   dist.Sampler
	slotSeconds float64
	scale       float64
	last        int
	// Switches counts network changes so far.
	Switches int
}

// NewDevice returns a device running alg (with core.DefaultConfig) on the
// stream rngutil.New(seed). A slot lasts slotSeconds, and a bit rate is
// observed as the gain rate/scale.
func NewDevice(alg core.Algorithm, seed int64, slotSeconds, scale float64) (*Device, error) {
	rng := rngutil.New(seed)
	policy, err := core.New(alg, []int{WiFiIndex, CellularIndex}, core.DefaultConfig(), rng)
	if err != nil {
		return nil, err
	}
	return &Device{
		policy:      policy,
		rng:         rng,
		wifiDelay:   dist.DefaultWiFiDelay(),
		cellDelay:   dist.DefaultCellularDelay(),
		slotSeconds: slotSeconds,
		scale:       scale,
		last:        -1,
	}, nil
}

// Select returns the network the device uses this slot.
func (d *Device) Select() int { return d.policy.Select() }

// Observe closes the slot in which the device used network choice at the
// given bit rate. A change of network costs a switching delay, drawn from
// the policy's stream and clamped to [0, slot]; Observe returns it (zero
// without a switch) for the caller to charge. The policy then learns the
// gain rate/scale.
func (d *Device) Observe(choice int, rate float64) (delay float64) {
	if d.last >= 0 && choice != d.last {
		d.Switches++
		if choice == CellularIndex {
			delay = d.cellDelay.Sample(d.rng)
		} else {
			delay = d.wifiDelay.Sample(d.rng)
		}
		delay = min(max(delay, 0), d.slotSeconds)
	}
	d.last = choice
	d.policy.Observe(rate / d.scale)
	return delay
}

// Run executes one trace-driven selection run. The gain scale is the
// pair's largest bit rate.
func Run(cfg RunConfig) (*RunResult, error) {
	if err := cfg.Pair.Validate(); err != nil {
		return nil, err
	}
	slots := cfg.Pair.Slots()
	slotSeconds := cfg.Pair.WiFi.SlotSeconds
	if slotSeconds <= 0 {
		slotSeconds = paperSlotSeconds
	}
	scale := cfg.Pair.MaxRate()
	if scale <= 0 {
		return nil, fmt.Errorf("trace: pair %q has zero rates throughout", cfg.Pair.Name)
	}
	dev, err := NewDevice(cfg.Algorithm, cfg.Seed, slotSeconds, scale)
	if err != nil {
		return nil, err
	}

	res := &RunResult{
		Selections: make([]int, slots),
		RateMbps:   make([]float64, slots),
	}
	for t := 0; t < slots; t++ {
		choice := dev.Select()
		rate := cfg.Pair.Rate(choice, t)
		delay := dev.Observe(choice, rate)
		res.DownloadMB += rate * (slotSeconds - delay) / 8
		res.SwitchCostMB += rate * delay / 8
		res.Selections[t] = choice
		res.RateMbps[t] = rate
	}
	res.Switches = dev.Switches
	return res, nil
}
