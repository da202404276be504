package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartexp3/internal/core"
	"smartexp3/internal/rngutil"
)

// Config fixes a Store's identity. Two stores with equal Configs fed the
// same request sequence produce identical decisions — that is the unit the
// snapshot format protects (a snapshot only restores into a matching
// Config).
type Config struct {
	// Algorithm must be one of the adversarial-bandit family served by
	// core.SmartEXP3 (EXP3, Block EXP3, Hybrid Block EXP3, Smart EXP3
	// with or without reset): those are the policies whose state is
	// exportable for snapshots. Zero means core.AlgSmartEXP3.
	Algorithm core.Algorithm
	// Policy holds the algorithm parameters. The zero value means
	// core.DefaultConfig(), the paper's Section V values.
	Policy core.Config
	// Seed roots every device's generator: device d draws from
	// rngutil.ChildSeed(Seed, int64(d)).
	Seed int64
	// Shards is the device-map shard count, rounded up to a power of two.
	// Zero scales with GOMAXPROCS (4× cores) so shard mutexes stay
	// uncontended under parallel load.
	Shards int
	// MaxArms bounds a request's arm set (wire-level hostility guard).
	// Zero means 1024.
	MaxArms int
	// EvictAfter enables idle-device eviction: a device that has seen no
	// Select or applied Feedback for at least this long is retired by the
	// next EvictIdle sweep, exactly as if its client had called Release —
	// a later Select for the same id starts a fresh session from the
	// device's root seed, so replays that include the eviction still
	// agree. Zero disables eviction entirely (no idle bookkeeping, no
	// sweep work).
	EvictAfter time.Duration
	// Clock supplies the time base for idle tracking. Zero means time.Now.
	// Injected so eviction tests (and replays of them) drive a fake clock
	// deterministically instead of sleeping.
	Clock func() time.Time
}

const defaultMaxArms = 1024

// withDefaults resolves the zero values. Idempotent, so both NewStore and
// the daemon's flag plumbing may call it.
func (c Config) withDefaults() Config {
	if c.Algorithm == 0 {
		c.Algorithm = core.AlgSmartEXP3
	}
	if c.Policy.Beta == 0 { // β ∈ (0,1], so 0 marks an unset Config
		c.Policy = core.DefaultConfig()
	}
	if c.Shards <= 0 {
		c.Shards = 4 * runtime.GOMAXPROCS(0)
	}
	pow2 := 1
	for pow2 < c.Shards {
		pow2 <<= 1
	}
	c.Shards = pow2 // power of two so shard routing is a mask, not a modulo
	if c.MaxArms <= 0 {
		c.MaxArms = defaultMaxArms
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// shard is one lock domain of the device map. The free list pools the
// device records Release retires: the next acquire rebuilds one in place,
// policy, generator and per-arm storage together, so a device joining
// after another left allocates nothing. Only Release pools. The bulk
// retirements (EvictIdle, Restore, RestoreRange and RemoveRange) leave
// their sessions to the garbage collector: each can retire most of a
// shard at once, and pooling that would keep the memory an eviction frees,
// or keep a Restore's replaced store alive beside the restored one.
type shard struct {
	mu      sync.Mutex
	devices map[uint64]*device
	free    []*device
	stats   shardStats // counted under mu only when the store is instrumented
}

// Store holds the per-device policy state behind the service. All methods
// are safe for concurrent use; each locks only the shards it touches.
type Store struct {
	cfg     Config
	shards  []shard
	mask    uint64
	devices atomic.Int64  // active device sessions
	dropped atomic.Uint64 // feedback/slots discarded for not matching a pending selection
	evicted atomic.Uint64 // sessions retired by idle eviction
	owner   atomic.Pointer[OwnershipFunc]
	m       *storeMetrics // nil until Instrument; set before traffic starts
}

// OwnershipFunc answers whether this store owns the device with the
// given routing key (serve.RouteKey of its id). When it does not, epoch
// and owner describe where the device lives instead: the partition-table
// epoch that moved it and the owning peer's data address ("" when the
// answerer has no table yet and owns nothing). The function must be pure
// and allocation-free — it runs inside the warm Select/Feedback paths
// under a shard lock.
type OwnershipFunc func(key uint64) (owned bool, epoch uint64, owner string)

// NotOwnerError is the redirect a store raises for a device it does not
// own: the client should refresh its partition table to at least Epoch
// and retry against Owner (a data address; empty when the rejecting peer
// cannot name one). It is a request-level error — the session remains
// usable.
type NotOwnerError struct {
	Epoch uint64
	Owner string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("serve: not the owner (epoch %d, owner %q)", e.Epoch, e.Owner)
}

// notOwned is the cold redirect path, kept out of the allocfree-marked
// bodies because constructing the error allocates (by design: a redirect
// is never the warm path).
func notOwned(epoch uint64, owner string) error {
	return &NotOwnerError{Epoch: epoch, Owner: owner}
}

// SetOwnership installs (or, with nil, removes) the store's ownership
// filter. With one installed, Select for an un-owned device returns
// *NotOwnerError, Feedback/ApplyBatchOwned reject instead of applying,
// and Release/EvictIdle leave un-owned sessions untouched.
//
// Ordering contract: the pointer is re-read under each shard lock, so a
// caller that installs a rejecting filter and then locks every shard in
// turn (as a migration drain's SnapshotRange does) is guaranteed that any
// request admitted by the previous filter finished before the cut
// reached its shard — the cut captures it; everything after sees the new
// filter. That is what makes a drained range globally consistent without
// stopping the rest of the store.
func (s *Store) SetOwnership(fn OwnershipFunc) {
	if fn == nil {
		s.owner.Store(nil)
		return
	}
	s.owner.Store(&fn)
}

// NewStore builds an empty store. The algorithm is validated eagerly — a
// daemon must refuse to boot as a policy it cannot snapshot, not discover it
// on the first request.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	probe, err := core.New(cfg.Algorithm, []int{0}, cfg.Policy, rngutil.New(0))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if _, ok := probe.(*core.SmartEXP3); !ok {
		return nil, fmt.Errorf("serve: %v has no exportable policy state; serve the EXP3 family", cfg.Algorithm)
	}
	s := &Store{cfg: cfg, shards: make([]shard, cfg.Shards), mask: uint64(cfg.Shards - 1)}
	for i := range s.shards {
		s.shards[i].devices = make(map[uint64]*device)
	}
	return s, nil
}

// Config returns the resolved configuration the store was built with.
func (s *Store) Config() Config { return s.cfg }

// Devices returns the number of active device sessions.
func (s *Store) Devices() int { return int(s.devices.Load()) }

// Dropped returns how many feedback reports and abandoned selections were
// discarded for not matching an outstanding Select. A nonzero rate means
// clients are retrying across availability changes or reporting stale arms.
func (s *Store) Dropped() uint64 { return s.dropped.Load() }

func (s *Store) shardIndex(deviceID uint64) uint64 { return mix64(deviceID) & s.mask }

// Select answers "which arm now?" for one device. arms must be non-empty,
// strictly ascending and within the configured MaxArms. A new device id
// creates a session (pooled when possible); a repeated Select with the same
// arms and no intervening Feedback returns the same arm — and the same slot
// — idempotently, which is what lets a client that lost the response simply
// ask again after a reconnect.
//
// The returned slot names this selection: it advances only when the
// selection settles (Feedback applied, or abandoned by an arm-set change).
// Feedback must quote it back, so a report duplicated across a reconnect
// cannot credit a later selection that happens to pick the same arm.
//
//repolint:allocfree via TestStoreArmSetChangeDoesNotAllocate
func (s *Store) Select(deviceID uint64, arms []int) (int, uint64, error) {
	if err := s.validateArms(deviceID, arms); err != nil {
		return -1, 0, err
	}
	sh := &s.shards[s.shardIndex(deviceID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fn := s.owner.Load(); fn != nil {
		if owned, epoch, owner := (*fn)(mix64(deviceID)); !owned {
			return -1, 0, notOwned(epoch, owner)
		}
	}
	var start time.Time
	if s.m != nil {
		sh.stats.selects++
		if sh.stats.selects&selectSampleMask == 0 {
			start = time.Now()
		}
	}
	dev := sh.devices[deviceID]
	if dev == nil {
		dev = s.acquire(sh, deviceID, arms)
		sh.devices[deviceID] = dev
		s.devices.Add(1)
	}
	if s.cfg.EvictAfter > 0 {
		dev.lastTouch = s.cfg.Clock().UnixNano()
	}
	if dev.pending >= 0 {
		if equalArms(dev.policy.Available(), arms) {
			if s.m != nil {
				sh.stats.dedupHits++
				if !start.IsZero() {
					s.m.selectLatency.Observe(time.Since(start).Nanoseconds())
				}
			}
			return dev.pending, dev.slot, nil // lost-response retry: same slot, same arm
		}
		// The arm set moved under an unanswered selection. Settle the
		// outstanding slot as zero gain so Select/Observe stay paired,
		// then fall through to a fresh selection over the new set.
		dev.policy.Observe(0)
		dev.pending = -1
		dev.slot++
		s.dropped.Add(1)
	}
	if !equalArms(dev.policy.Available(), arms) {
		dev.policy.SetAvailable(arms)
	}
	arm := dev.policy.Select()
	dev.pending = arm
	if !start.IsZero() {
		s.m.selectLatency.Observe(time.Since(start).Nanoseconds())
	}
	return arm, dev.slot, nil
}

// validateArms rejects malformed arm sets. It is Select's cold rejection
// path, kept out of the allocfree-marked body because the formatted errors
// allocate (by design: a rejected request is never the warm path).
func (s *Store) validateArms(deviceID uint64, arms []int) error {
	if len(arms) == 0 {
		return fmt.Errorf("serve: device %d: empty arm set", deviceID)
	}
	if len(arms) > s.cfg.MaxArms {
		return fmt.Errorf("serve: device %d: %d arms exceeds the %d limit", deviceID, len(arms), s.cfg.MaxArms)
	}
	if !ascendingArms(arms) {
		return fmt.Errorf("serve: device %d: arms must be strictly ascending", deviceID)
	}
	return nil
}

// acquire builds a device session for deviceID in place, in a pooled
// record when the shard has retirees and in one new allocation otherwise.
// Caller holds sh.mu.
func (s *Store) acquire(sh *shard, deviceID uint64, arms []int) *device {
	var dev *device
	if n := len(sh.free); n > 0 {
		dev = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		dev = new(device)
	}
	dev.src.Seed(rngutil.ChildSeed(s.cfg.Seed, int64(deviceID)))
	dev.init(&s.cfg, arms)
	return dev
}

// Feedback reports the reward of the outstanding selection for deviceID,
// quoting the slot that Select returned alongside the arm. It returns true
// when the report was applied; a report for an unknown device, a
// non-pending arm, or a settled slot is counted in Dropped and ignored —
// so feedback duplicated, reordered, or replayed across a reconnect cannot
// double-count a slot even when a later selection picks the same arm. A
// report for a device an installed ownership filter disowns is refused
// without touching state or the drop counter — the caller should re-route
// it (ApplyBatchOwned returns such items).
//
//repolint:allocfree via TestStoreChurnIsAllocationFreeWarm
func (s *Store) Feedback(deviceID uint64, arm int, slot uint64, reward float64) bool {
	sh := &s.shards[s.shardIndex(deviceID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fn := s.owner.Load(); fn != nil {
		if owned, _, _ := (*fn)(mix64(deviceID)); !owned {
			return false
		}
	}
	return s.feedbackLocked(sh, deviceID, arm, slot, reward)
}

//repolint:allocfree via TestStoreChurnIsAllocationFreeWarm
func (s *Store) feedbackLocked(sh *shard, deviceID uint64, arm int, slot uint64, reward float64) bool {
	dev := sh.devices[deviceID]
	if dev == nil || dev.pending != arm || dev.slot != slot {
		s.dropped.Add(1)
		return false
	}
	if s.cfg.EvictAfter > 0 {
		dev.lastTouch = s.cfg.Clock().UnixNano()
	}
	dev.policy.Observe(reward) // core clamps to [0,1]
	dev.pending = -1
	dev.slot++
	if s.m != nil {
		sh.stats.feedbacks++
	}
	return true
}

// FeedbackItem is one buffered reward report.
type FeedbackItem struct {
	Device uint64
	Arm    int
	Slot   uint64
	Reward float64
}

// ApplyBatchOwned applies a feedback batch, locking each shard at most
// once regardless of how the batch interleaves devices, and returns how
// many items were applied. This is the server's path for the client's
// buffered fire-and-forget feedback frames. Items for devices the store's
// ownership filter disowns are not applied (and not counted in Dropped —
// they are valid reports aimed at the wrong peer) but appended to
// rejected, which is returned re-sliced from its start so callers can
// retain one buffer across batches; a nil rejected suffices without a
// filter. epoch is the highest table epoch the filter quoted for a
// rejection, 0 when none; the server ships it with the bounced items so a
// stale client knows how far to refresh. The ownership pointer is re-read
// under each shard lock — see SetOwnership for why that makes migration
// cuts exact.
//
//repolint:allocfree via TestApplyBatchWarmDoesNotAllocate
func (s *Store) ApplyBatchOwned(items []FeedbackItem, rejected []FeedbackItem) (applied int, rej []FeedbackItem, epoch uint64) {
	rejected = rejected[:0]
	remaining := len(items)
	for si := range s.shards {
		if remaining == 0 {
			break
		}
		sh := &s.shards[si]
		locked := false
		var fn *OwnershipFunc
		for i := range items {
			it := &items[i]
			if s.shardIndex(it.Device) != uint64(si) {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
				fn = s.owner.Load()
			}
			if fn != nil {
				if owned, ep, _ := (*fn)(mix64(it.Device)); !owned {
					if ep > epoch {
						epoch = ep
					}
					//repolint:ignore allocfree rejects occur only on the cold migration path and reuse the caller's retained buffer warm
					rejected = append(rejected, *it)
					remaining--
					continue
				}
			}
			if s.feedbackLocked(sh, it.Device, it.Arm, it.Slot, it.Reward) {
				applied++
			}
			remaining--
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	return applied, rejected, epoch
}

// Release retires a device session, returning its policy state to the
// shard's pool. A later Select for the same id starts a fresh session from
// the device's root seed (release-then-return is part of the request
// history, so replays still agree). Releasing an unknown id is a no-op.
func (s *Store) Release(deviceID uint64) bool {
	sh := &s.shards[s.shardIndex(deviceID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fn := s.owner.Load(); fn != nil {
		if owned, _, _ := (*fn)(mix64(deviceID)); !owned {
			return false // mid-migration: the cut must keep the session
		}
	}
	dev := sh.devices[deviceID]
	if dev == nil {
		return false
	}
	delete(sh.devices, deviceID)
	sh.free = append(sh.free, dev)
	s.devices.Add(-1)
	return true
}

// Evicted returns how many device sessions idle-eviction sweeps have
// retired over the store's lifetime.
func (s *Store) Evicted() uint64 { return s.evicted.Load() }

// EvictIdle retires every device whose last Select or applied Feedback is
// at least Config.EvictAfter in the past, as read from Config.Clock, and
// returns how many were evicted. Eviction decides like a Release the
// client never sent: a later Select for the same id starts fresh from the
// device's root seed, so a replay that includes the eviction still decides
// identically. Unlike Release it leaves the session to the garbage
// collector instead of the shard pool, so a sweep frees what it evicts. A
// zero EvictAfter makes the sweep a no-op, matching the disabled
// bookkeeping.
//
// Shards are swept one at a time, so service continues on the others; a
// device touched between the sweep's clock reading and its shard's turn is
// safe — staleness is re-checked under the shard lock.
func (s *Store) EvictIdle() int {
	if s.cfg.EvictAfter <= 0 {
		return 0
	}
	cutoff := s.cfg.Clock().Add(-s.cfg.EvictAfter).UnixNano()
	evicted := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		fn := s.owner.Load()
		for id, dev := range sh.devices {
			if dev.lastTouch > cutoff {
				continue
			}
			if fn != nil {
				if owned, _, _ := (*fn)(mix64(id)); !owned {
					continue // mid-migration: the cut must keep the session
				}
			}
			delete(sh.devices, id)
			s.devices.Add(-1)
			evicted++
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		s.evicted.Add(uint64(evicted))
	}
	return evicted
}
