// Package core implements the paper's contribution — Smart EXP3 — together
// with every selection policy the evaluation compares against: EXP3, Block
// EXP3, Hybrid Block EXP3, Smart EXP3 w/o Reset (Table III), and Greedy,
// Full Information, and Fixed Random (Table II). The Centralized baseline
// needs global knowledge and therefore lives in the simulator
// (internal/sim), not here.
//
// # Contract
//
// A Policy runs on one device. Time is slotted: each slot the caller invokes
// Select to learn which network the device uses, then Observe with the gain
// (the device's observed bit rate scaled to [0,1]) obtained during that slot.
// SetAvailable may be called between slots when the device's set of visible
// networks changes (mobility, networks appearing or disappearing).
//
// Policies are deterministic functions of their inputs and the *rand.Rand
// they are constructed with, which makes whole simulations reproducible from
// a single seed.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Policy is a per-device network-selection strategy.
type Policy interface {
	// Name identifies the algorithm (for reports).
	Name() string
	// Select returns the global id of the network to use for the upcoming
	// slot. Callers must follow every Select with exactly one Observe.
	Select() int
	// Observe reports the gain, scaled to [0,1], obtained during the slot
	// from the network returned by the preceding Select.
	Observe(gain float64)
	// SetAvailable replaces the set of networks visible to the device.
	// Implementations retain learned state for networks that remain.
	SetAvailable(networks []int)
	// Available returns the ids of the networks the policy currently
	// selects from, in ascending order. Callers must not modify it.
	Available() []int
}

// Reinitializer is implemented by policies that can be returned, in place,
// to the state their constructor would produce over a (possibly different)
// availability set, reusing every internal buffer. The simulation engine's
// pooled workspaces call Reinit instead of constructing fresh policies, so
// replications run without per-replication allocation.
//
// Reinit must be behaviorally indistinguishable from constructing a new
// policy with the same arguments: given the same availability set and an
// identically seeded rng, the reinitialized policy must produce the same
// Select/Observe trajectory bit for bit. All policies in this package
// implement it.
type Reinitializer interface {
	Policy
	// Reinit resets the policy to its freshly constructed state over the
	// given networks, drawing all future randomness from rng.
	Reinit(available []int, rng *rand.Rand)
}

// ProbabilityReporter is implemented by policies that maintain an explicit
// selection distribution (the EXP3 family and Full Information). It feeds
// stable-state detection (Definition 2).
type ProbabilityReporter interface {
	// Probabilities returns the current selection distribution aligned with
	// Available(). Callers must not modify the returned slice.
	Probabilities() []float64
}

// ResetReporter is implemented by policies with a reset mechanism.
type ResetReporter interface {
	// Resets returns the number of resets performed so far.
	Resets() int
}

// SwitchReporter is implemented by policies that count their own network
// switches (a switch is a change of network between consecutive slots).
type SwitchReporter interface {
	// Switches returns the number of network switches so far.
	Switches() int
}

// FullFeedbackPolicy is implemented by policies that consume counterfactual
// feedback: the gain the device would have obtained from every available
// network, not only the selected one. The simulator calls ObserveAll after
// Observe each slot.
type FullFeedbackPolicy interface {
	Policy
	// ObserveAll reports the gain the device would have observed on each
	// available network this slot, aligned with Available().
	ObserveAll(gains []float64)
}

// Algorithm enumerates the selection policies of Tables II and III plus the
// Centralized baseline.
type Algorithm int

// The algorithms evaluated in the paper.
const (
	AlgEXP3 Algorithm = iota + 1
	AlgBlockEXP3
	AlgHybridBlockEXP3
	AlgSmartEXP3NoReset
	AlgSmartEXP3
	AlgGreedy
	AlgFullInformation
	AlgFixedRandom
	AlgCentralized
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgEXP3:
		return "EXP3"
	case AlgBlockEXP3:
		return "Block EXP3"
	case AlgHybridBlockEXP3:
		return "Hybrid Block EXP3"
	case AlgSmartEXP3NoReset:
		return "Smart EXP3 w/o Reset"
	case AlgSmartEXP3:
		return "Smart EXP3"
	case AlgGreedy:
		return "Greedy"
	case AlgFullInformation:
		return "Full Information"
	case AlgFixedRandom:
		return "Fixed Random"
	case AlgCentralized:
		return "Centralized"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// shortNames is the one vocabulary of the command-line flags and the JSON
// scenarios, indexed by Algorithm.
var shortNames = [...]string{
	AlgEXP3: "exp3", AlgBlockEXP3: "block", AlgHybridBlockEXP3: "hybrid",
	AlgSmartEXP3NoReset: "smartnr", AlgSmartEXP3: "smart", AlgGreedy: "greedy",
	AlgFullInformation: "fullinfo", AlgFixedRandom: "fixed", AlgCentralized: "centralized",
}

// ShortName returns the algorithm's flag and JSON name ("smart" for Smart
// EXP3), or "" for a value outside the enumeration.
func (a Algorithm) ShortName() string {
	if a < AlgEXP3 || a > AlgCentralized {
		return ""
	}
	return shortNames[a]
}

// ParseAlgorithm returns the algorithm whose ShortName is name.
func ParseAlgorithm(name string) (Algorithm, bool) {
	for _, a := range Algorithms() {
		if shortNames[a] == name {
			return a, true
		}
	}
	return 0, false
}

// Algorithms lists every algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgEXP3, AlgBlockEXP3, AlgHybridBlockEXP3, AlgSmartEXP3NoReset,
		AlgSmartEXP3, AlgGreedy, AlgFullInformation, AlgFixedRandom,
		AlgCentralized,
	}
}

// Features selects which of Smart EXP3's mechanisms are enabled; the named
// variants of Table III are feature subsets, which doubles as the ablation
// surface.
type Features struct {
	// Blocking enables adaptive blocking (block length ⌈(1+β)^x⌉). When
	// false every block is a single slot, giving classic EXP3.
	Blocking bool
	// ExploreFirst enables the initial (and post-reset) round-robin
	// exploration of every network in random order.
	ExploreFirst bool
	// Greedy enables the coin-flip greedy policy.
	Greedy bool
	// SwitchBack enables the switch-back mechanism.
	SwitchBack bool
	// Reset enables the minimal reset mechanism (periodic and on quality
	// drops).
	Reset bool
	// NetworkChange enables Smart EXP3's handling of availability changes
	// (max-weight seeding of new networks plus reset).
	NetworkChange bool
}

// FeaturesFor returns the feature set of the named algorithm. It panics for
// algorithms that are not members of the Smart EXP3 family.
func FeaturesFor(a Algorithm) Features {
	switch a {
	case AlgEXP3:
		return Features{}
	case AlgBlockEXP3:
		return Features{Blocking: true}
	case AlgHybridBlockEXP3:
		return Features{Blocking: true, ExploreFirst: true, Greedy: true}
	case AlgSmartEXP3NoReset:
		return Features{Blocking: true, ExploreFirst: true, Greedy: true, SwitchBack: true}
	case AlgSmartEXP3:
		return Features{
			Blocking: true, ExploreFirst: true, Greedy: true,
			SwitchBack: true, Reset: true, NetworkChange: true,
		}
	default:
		panic(fmt.Sprintf("core: %v is not an EXP3-family algorithm", a))
	}
}

// Config carries the tunables of Section V. The zero value is not usable;
// call DefaultConfig.
type Config struct {
	// Beta is the block growth factor β ∈ (0,1]; blocks have length
	// ⌈(1+β)^x⌉. The paper uses 0.1.
	Beta float64
	// Gamma returns the exploration rate γ ∈ (0,1] for block index b
	// (1-based). The paper uses γ = b^{-1/3}, which tends to zero as
	// required for convergence.
	Gamma func(block int) float64
	// ResetProbability and ResetBlockLength gate the periodic reset: reset
	// when the most probable network has probability ≥ ResetProbability and
	// current block length ≥ ResetBlockLength. The paper uses 0.75 and 40.
	ResetProbability float64
	ResetBlockLength int
	// DropFraction and DropSlots gate the quality-drop reset: reset when the
	// gain of the most-selected, currently connected network sits at least
	// DropFraction below its historical average for more than DropSlots
	// consecutive slots. The paper uses 0.15 and 4.
	DropFraction float64
	DropSlots    int
	// SwitchBackWindow is the number of trailing slots of the previous block
	// consulted by the switch-back rule. The paper uses 8.
	SwitchBackWindow int
	// MinDropObservations is the minimum number of observations of a network
	// before the drop detector trusts its historical average.
	MinDropObservations int
}

// DefaultConfig returns the parameter values of Section V.
func DefaultConfig() Config {
	return Config{
		Beta:                0.1,
		Gamma:               DecayingGamma,
		ResetProbability:    0.75,
		ResetBlockLength:    40,
		DropFraction:        0.15,
		DropSlots:           4,
		SwitchBackWindow:    8,
		MinDropObservations: 8,
	}
}

// DecayingGamma is the paper's exploration schedule γ(b) = b^{-1/3}.
// Every policy evaluates it once per block, so the low block indices —
// where short blocks make starts frequent — are served from a table
// precomputed with the same math.Pow call.
func DecayingGamma(block int) float64 {
	if block < 1 {
		block = 1
	}
	if block < len(decayingGammaTab) {
		return decayingGammaTab[block]
	}
	return math.Pow(float64(block), -1.0/3.0)
}

var decayingGammaTab = func() [512]float64 {
	var tab [512]float64
	for b := 1; b < len(tab); b++ {
		tab[b] = math.Pow(float64(b), -1.0/3.0)
	}
	return tab
}()

// FixedGamma returns a constant exploration schedule, used by the theoretical
// analysis (Theorems 1–3 assume fixed γ) and by ablation benchmarks.
func FixedGamma(gamma float64) func(int) float64 {
	return func(int) float64 { return gamma }
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("core: beta must be in (0,1], got %v", c.Beta)
	}
	if c.Gamma == nil {
		return fmt.Errorf("core: gamma schedule must be set")
	}
	if c.ResetProbability <= 0 || c.ResetProbability > 1 {
		return fmt.Errorf("core: reset probability must be in (0,1], got %v", c.ResetProbability)
	}
	if c.SwitchBackWindow < 1 {
		return fmt.Errorf("core: switch-back window must be ≥ 1, got %d", c.SwitchBackWindow)
	}
	return nil
}

// New constructs the policy for the given algorithm over the available
// networks (global ids). It returns an error for AlgCentralized, which
// cannot run as a per-device policy.
func New(a Algorithm, available []int, cfg Config, rng *rand.Rand) (Policy, error) {
	if len(available) == 0 {
		return nil, fmt.Errorf("core: %v requires at least one available network", a)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: %v requires a random source", a)
	}
	switch a {
	case AlgEXP3, AlgBlockEXP3, AlgHybridBlockEXP3, AlgSmartEXP3NoReset, AlgSmartEXP3:
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return NewSmartEXP3(a.String(), FeaturesFor(a), available, cfg, rng), nil
	case AlgGreedy:
		return NewGreedy(available, rng), nil
	case AlgFullInformation:
		return NewFullInformation(available, rng), nil
	case AlgFixedRandom:
		return NewFixedRandom(available, rng), nil
	case AlgCentralized:
		return nil, fmt.Errorf("core: centralized allocation is a coordinator, not a per-device policy")
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", a)
	}
}

// BlockLength returns ⌈(1+β)^x⌉, the adaptive block length after a network
// has been selected in x previous blocks.
func BlockLength(beta float64, x int) int {
	return int(math.Ceil(math.Pow(1+beta, float64(x))))
}

// blockTableLen is the length of a shared block-length table. At the
// paper's β = 0.1 its last entry is a block of ~3.6e10 slots, so runs never
// leave it; lengths past it are computed directly.
const blockTableLen = 256

var blockTables struct {
	sync.Mutex
	byBeta map[uint64][]int // keyed by the bits of β
}

// blockTable returns the read-only table of BlockLength(beta, x) for
// x < blockTableLen. It is built once per β (2 KB each) and shared by every
// policy constructed with that β, since the schedule depends on nothing
// else.
func blockTable(beta float64) []int {
	key := math.Float64bits(beta)
	blockTables.Lock()
	defer blockTables.Unlock()
	if t, ok := blockTables.byBeta[key]; ok {
		return t
	}
	t := make([]int, blockTableLen)
	for x := range t {
		t[x] = BlockLength(beta, x)
	}
	if blockTables.byBeta == nil {
		blockTables.byBeta = make(map[uint64][]int)
	}
	blockTables.byBeta[key] = t
	return t
}

// firstAtLeast returns the first x whose entry in a block-length table is
// at least n, or len(lens) when there is none. Every x below the result has
// a shorter block, whether or not the table is monotone, so a policy whose
// every x is below it cannot meet the periodic reset's length condition.
func firstAtLeast(lens []int, n int) int {
	for x, l := range lens {
		if l >= n {
			return x
		}
	}
	return len(lens)
}

func clamp01(g float64) float64 {
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// sortedInto copies xs into dst's backing array (growing it as needed) and
// sorts the result ascending. Reinit and SetAvailable paths use it to avoid
// allocating a fresh sorted copy; xs may alias dst.
func sortedInto(dst, xs []int) []int {
	dst = append(dst[:0], xs...)
	sort.Ints(dst)
	return dst
}

// stackArms is how many arms an availability change carries in call-local
// arrays; larger sets carry their outgoing state on the heap.
const stackArms = 16

// carryBuf returns a zeroed length-n view of buf, or a fresh slice when n
// exceeds it. Callers pass a slice of a local array, so up to stackArms
// arms the outgoing per-arm state of an availability change lives on the
// stack.
func carryBuf[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// idCursor matches the ids of an outgoing availability set against the
// incoming one: calling find for ascending ids walks both lists once, so
// re-indexing per-arm state across a change needs no map.
type idCursor struct {
	ids []int // outgoing set, ascending
	i   int
}

// find returns the positions [lo, hi) of id in the outgoing set; lo == hi
// when it is absent. A repeated id has several positions, and the last
// one is the one whose state carries over. ids must be passed in
// ascending order; passing the same id again finds the same positions.
//
//repolint:allocfree via TestSmartEXP3SetAvailableWarmAllocs
func (c *idCursor) find(id int) (lo, hi int) {
	for c.i < len(c.ids) && c.ids[c.i] < id {
		c.i++
	}
	hi = c.i
	for hi < len(c.ids) && c.ids[hi] == id {
		hi++
	}
	return c.i, hi
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
