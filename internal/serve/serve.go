// Package serve is the bandit-as-a-service layer: a long-lived decision
// daemon that holds per-device Smart EXP3 policy state for many concurrent
// device sessions and answers Select(deviceID, availableArms) /
// Feedback(deviceID, arm, reward) at wire speed.
//
// The package splits the problem the same way the simulator splits
// Engine/Workspace: the Store owns the hot per-device policy state (sharded
// across GOMAXPROCS-scaled shards, each under its own mutex; each device is
// one record holding its policy, generator and per-arm state, and released
// records are pooled and rebuilt in place so device churn is
// allocation-free warm), while Server/Client own the transport: the
// fixed-layout payloads of codec.go (see wire.go for the layout) carried
// in internal/frame's checksummed frames, so every daemon in the
// repository shares one framing, deadline and handshake discipline while
// the decision path pays for no reflection.
//
// Determinism contract: a Store is a pure function of (Algorithm, Policy
// config, Seed) and the sequence of requests applied to it. Each device
// draws from its own generator seeded rngutil.ChildSeed(Seed,
// int64(deviceID)), so devices are independent sub-streams and concurrent
// traffic to different devices cannot perturb one another. Snapshot captures
// every active device's policy state and generator cursor verbatim (see
// internal/core.PolicyState); restoring and replaying is byte-identical to
// never having restarted.
//
// Select/Feedback pairing: the store answers a repeated Select for a device
// with an unanswered selection idempotently (same arm, same slot) as long
// as the arm set is unchanged, so a client that lost a response can simply
// retry. A Select that changes the arm set while a selection is unanswered
// settles the outstanding slot as zero gain first — the policy's
// Select/Observe pairing invariant survives lost feedback. Feedback must
// name both the arm and the slot of the outstanding selection; anything
// else is counted in Dropped and ignored. The slot is the recovery
// cornerstone: it advances only when a selection settles, so a feedback
// batch resent after a reconnect (the client cannot know whether a frame
// cut mid-write was consumed) applies at most once even when the same arm
// was re-chosen in between.
//
// Recovery contract (client side): a transport failure — connection cut,
// frame corrupted (surfaced by the frame layer's checksums), stall past the
// frame timeout — is invisible to the caller. The Client redials with
// capped exponential backoff, replays the handshake, resends
// written-but-unconfirmed feedback (slot-deduplicated by the store), and
// re-issues the in-flight select (answered idempotently). Only handshake
// rejections are permanent. Every client redials: Dial through TCP,
// NewClient through the dialer it was given. A daemon still unreachable
// after MaxAttempts surfaces as an error, never as a locally made
// decision, so a device's learning history lives in exactly one store. A
// session run through an adversarial network is therefore
// decision-identical to a clean one — the property chaos_test.go drives
// with internal/chaos.
//
// Eviction: with Config.EvictAfter set, EvictIdle retires device sessions
// whose last Select or applied Feedback is older than the TTL — the
// sessions of clients that vanished without Release. Eviction is
// operationally invisible to determinism: an evicted device that returns
// re-joins from its per-device root seed exactly like a released one, and
// idle bookkeeping stays out of snapshots.
package serve

import (
	"math/rand"

	"smartexp3/internal/core"
	"smartexp3/internal/rngutil"
)

// device is one device session's policy state, held in one heap object
// laid out hot-first: the request bookkeeping, the generator, then the
// policy, the rand.Rand it draws through, and the inline per-arm storage
// the policy is carved over. A decision for a cold device then misses on
// one record, not on a chain of a dozen pointers to separately allocated
// slices. The generator is 24 B by value and holds no ring while young:
// a device fewer than 334 draws past its join, which nearly every device
// of a churning population is, draws from its seed alone, and only its
// 334th draw allocates the 4,856 B ring (rngutil.Source). The policy and
// the rand.Rand point into the record, so a device is never copied once
// built (see init). Released devices wait on the shard free list; acquire
// rebuilds them in place, keeping any ring, so churn costs no allocation
// warm.
type device struct {
	pending int    // global arm id awaiting Feedback, -1 when none
	slot    uint64 // id of the pending (or next) selection; advances as slots settle
	// lastTouch is the Config.Clock reading (UnixNano) of the device's most
	// recent Select or applied Feedback. It is activity bookkeeping, not
	// decision state: it stays out of snapshots so encoded bytes remain a
	// pure function of the request history, and it is only maintained when
	// eviction is enabled so the disabled warm path pays nothing.
	lastTouch int64
	src       rngutil.Source
	policy    core.SmartEXP3
	rng       rand.Rand
	// floats and ints hold the policy's per-arm state for up to deviceArms
	// arms under the paper's switch-back window (core.SmartEXP3Storage),
	// SetAvailable's sort buffer included, since every arm-set change
	// sorts into it; a larger arm set or window grows the policy's slices
	// on the heap.
	floats [4*deviceArms + 1 + 2*deviceWindow]float64
	ints   [6 * deviceArms]int
}

// deviceArms is how many arms a device record holds inline: the largest
// arm set bench/'s serve-churn workload draws. It puts the record, 1,528 B
// with its ringless generator, in the allocator's 1,536 B size class
// (TestDeviceFitsItsSizeClass). deviceWindow is core.DefaultConfig's
// SwitchBackWindow.
const deviceArms, deviceWindow = 8, 8

// init builds the session in place over arms, ready for its first Select.
// It leaves the generator's state alone: a join seeds it, a restore
// overwrites it.
func (dev *device) init(cfg *Config, arms []int) {
	dev.pending, dev.slot, dev.lastTouch = -1, 0, 0
	dev.rng = *rand.New(&dev.src)
	core.InitSmartEXP3(&dev.policy, cfg.Algorithm.String(), core.FeaturesFor(cfg.Algorithm),
		arms, cfg.Policy, &dev.rng, dev.floats[:], dev.ints[:])
}

// RouteKey maps a device id to its position in the routing-key space —
// the coordinate the fleet layer partitions. Stripe ranges, ownership
// checks and SnapshotRange bounds all speak keys, not raw ids: the mix
// spreads sequential ids (the common assignment scheme) uniformly, so
// contiguous key ranges carry statistically even device populations.
// The same mix routes ids to store shards (low bits) — the two uses are
// independent because stripes cut on high bits.
func RouteKey(deviceID uint64) uint64 { return mix64(deviceID) }

// mix64 is SplitMix64's output function, used to spread device ids across
// shards; sequential ids (the common assignment scheme) land on distinct
// shards instead of sharing one.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// equalArms reports whether a strictly ascending request arm set equals the
// policy's current availability (which core keeps ascending).
func equalArms(a, b []int) bool {
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

// ascendingArms reports whether arms is strictly ascending — the request
// normal form. Requiring it at the boundary keeps the hot path free of
// sorting and makes duplicate arms a hard error instead of silent policy
// corruption.
func ascendingArms(arms []int) bool {
	for i := 1; i < len(arms); i++ {
		if arms[i] <= arms[i-1] {
			return false
		}
	}
	return true
}
