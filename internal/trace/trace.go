// Package trace implements the trace-driven simulation substrate of Section
// VI-B: bit-rate traces of a public WiFi network and a cellular network
// observed simultaneously, CSV serialization, a synthetic generator that
// reproduces the qualitative structure of the paper's four trace pairs (it
// stands in for the authors' raw traces, which are not distributed), and the
// single-device trace-driven run that produces Table VI and Figure 12.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Network indices within a Pair.
const (
	WiFiIndex     = 0
	CellularIndex = 1
)

// Trace is a time series of observed bit rates for one network.
type Trace struct {
	Name        string
	SlotSeconds float64
	// Rates holds one observed bit rate (Mbps) per slot.
	Rates []float64
}

// Pair couples simultaneous WiFi and cellular traces, the unit of evaluation
// in Section VI-B (4 pairs of 25 minutes each).
type Pair struct {
	Name     string
	WiFi     Trace
	Cellular Trace
}

// Slots returns the usable horizon: the shorter of the two traces.
func (p Pair) Slots() int {
	if len(p.WiFi.Rates) < len(p.Cellular.Rates) {
		return len(p.WiFi.Rates)
	}
	return len(p.Cellular.Rates)
}

// Rate returns the bit rate of the given network (WiFiIndex or
// CellularIndex) at slot t.
func (p Pair) Rate(network, t int) float64 {
	if network == CellularIndex {
		return p.Cellular.Rates[t]
	}
	return p.WiFi.Rates[t]
}

// MaxRate returns the largest bit rate across both traces, the default gain
// scale.
func (p Pair) MaxRate() float64 {
	var maxRate float64
	for t := 0; t < p.Slots(); t++ {
		if r := p.WiFi.Rates[t]; r > maxRate {
			maxRate = r
		}
		if r := p.Cellular.Rates[t]; r > maxRate {
			maxRate = r
		}
	}
	return maxRate
}

// Validate reports whether the pair is usable for a trace-driven run.
func (p Pair) Validate() error {
	if p.Slots() == 0 {
		return fmt.Errorf("trace: pair %q has no slots", p.Name)
	}
	for t := 0; t < p.Slots(); t++ {
		if p.WiFi.Rates[t] < 0 || p.Cellular.Rates[t] < 0 {
			return fmt.Errorf("trace: pair %q has a negative rate at slot %d", p.Name, t)
		}
	}
	return nil
}

// WriteCSV serializes the pair as "slot,wifi_mbps,cellular_mbps" rows with a
// header.
func WriteCSV(w io.Writer, p Pair) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"slot", "wifi_mbps", "cellular_mbps"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for t := 0; t < p.Slots(); t++ {
		rec := []string{
			strconv.Itoa(t),
			strconv.FormatFloat(p.WiFi.Rates[t], 'f', 4, 64),
			strconv.FormatFloat(p.Cellular.Rates[t], 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write slot %d: %w", t, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a pair serialized by WriteCSV. The pair's name and slot
// duration must be supplied by the caller (they are not part of the format).
func ReadCSV(r io.Reader, name string, slotSeconds float64) (Pair, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return Pair{}, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(records) < 2 {
		return Pair{}, fmt.Errorf("trace: csv %q has no data rows", name)
	}
	p := Pair{
		Name:     name,
		WiFi:     Trace{Name: name + "/wifi", SlotSeconds: slotSeconds},
		Cellular: Trace{Name: name + "/cellular", SlotSeconds: slotSeconds},
	}
	for i, rec := range records[1:] {
		if len(rec) != 3 {
			return Pair{}, fmt.Errorf("trace: csv %q row %d has %d fields, want 3", name, i+1, len(rec))
		}
		wifi, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return Pair{}, fmt.Errorf("trace: csv %q row %d wifi rate: %w", name, i+1, err)
		}
		cell, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return Pair{}, fmt.Errorf("trace: csv %q row %d cellular rate: %w", name, i+1, err)
		}
		p.WiFi.Rates = append(p.WiFi.Rates, wifi)
		p.Cellular.Rates = append(p.Cellular.Rates, cell)
	}
	return p, nil
}
