package serve

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"smartexp3/internal/core"
	"smartexp3/internal/rngutil"
)

// snapshotVersion is bumped whenever the snapshot layout changes
// incompatibly; Restore refuses mismatches loudly. Version 2 added the
// per-device selection slot (the feedback-dedup cursor): restoring it
// wrongly-zeroed would let pre-snapshot feedback replayed after a restart
// double-count, so version 1 files are refused rather than guessed at.
// Version 3 dropped the cached selection distribution from the policy
// state (Probs, ProbsValid, IPlus, MaxP, MinP) and added UniformProbs, the
// one cached fact the weights cannot reproduce. A version 2 file decoded
// into this layout would lose that fact, so it is refused too.
const snapshotVersion = 3

// SnapshotVersion is the current snapshot layout version — what Snapshot
// stamps and every restore path demands. Exported so the fleet layer can
// refuse a mismatched migration payload when it is staged instead of
// when it is committed.
const SnapshotVersion = snapshotVersion

// DeviceSnapshot is one active device session at rest: its policy state
// (core.PolicyState preserves every weight view bit for bit and leaves out
// the selection distribution, which the policy recomputes; see that type's
// doc) plus its generator cursor, the unanswered selection, and the
// selection slot. It is the element of Snapshot.Devices, the shape in
// which callers that read, edit or merge snapshots see each device.
type DeviceSnapshot struct {
	Device  uint64
	Pending int
	Slot    uint64
	Rng     rngutil.SourceState
	State   core.PolicyState
}

// Validate checks the record's policy state and generator state, so a
// corrupt record is refused instead of restoring a policy or a stream no
// store produces. ReadSnapshot calls it; the restore paths and fleet
// staging call Store.CheckRecord, which adds the store's own bounds.
func (ds *DeviceSnapshot) Validate() error {
	if err := ds.State.Validate(); err != nil {
		return err
	}
	return ds.Rng.Validate()
}

// Snapshot is a Store's portable state. Devices are sorted by id, so the
// encoded bytes are a deterministic function of the store's logical state —
// independent of shard count, map iteration order, or which shard was
// visited first.
type Snapshot struct {
	Version   int
	Algorithm core.Algorithm
	Seed      int64
	Dropped   uint64
	Devices   []DeviceSnapshot
}

// Snapshot captures every active device session. Shards are locked one at a
// time, so service continues on the others while a shard is being copied;
// each device is captured atomically, but the cut is NOT globally
// consistent under live writes: a device on a later shard may absorb
// feedback after an earlier shard was copied. Quiesce the store first when
// a consistent cut is required — the daemon's shutdown path does so by
// closing the listener, but `served -snapshot-every` deliberately does
// not: its periodic snapshots are crash-recovery points, per-device exact
// yet possibly a few requests skewed across devices, which replay
// absorbs. For a consistent cut of a key range under traffic, bar writes
// to the range first (SetOwnership) and use SnapshotRange.
//
// The snapshot allocates what it keeps. Devices is allocated once, at the
// count a first pass over the shards finds, so a quiescent store's
// snapshot has cap(Devices) == len(Devices); a device that joins between
// that pass and its shard's copy grows Devices by exactly what that shard
// needs. Each shard's records take their policy-state slices from two
// arenas, one []float64 and one []int, sized under the shard lock, so a
// snapshot makes a few allocations per shard, not a dozen per device.
// Every record slice's capacity ends where the arena region reserved for
// it does, so a holder may append to any of them: an append that outgrows
// the region copies out, and none writes into another slice of its record
// or into a neighbour's.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{
		Version:   snapshotVersion,
		Algorithm: s.cfg.Algorithm,
		Seed:      s.cfg.Seed,
		Dropped:   s.dropped.Load(),
		Devices:   s.capture(0, math.MaxUint64),
	}
}

// SnapshotRange captures the device sessions whose routing key
// (RouteKey of the device id) lies in [lo, hi], inclusive, in the same
// sorted portable form and with the same allocation as Snapshot. Dropped
// is zero — the drop counter is store-global and stays with the full
// store.
//
// The cut is globally consistent for the range if and only if writes to
// the range are barred first: install an ownership filter that disowns
// [lo, hi] (SetOwnership), then call SnapshotRange. Because Select and
// Feedback re-read the filter under each shard lock, every request the
// old filter admitted completes before this sweep reaches its shard and
// is captured; every request after sees the rejection. Without that
// barrier the per-shard locking leaves the same skew window the full
// Snapshot has.
func (s *Store) SnapshotRange(lo, hi uint64) *Snapshot {
	return &Snapshot{
		Version:   snapshotVersion,
		Algorithm: s.cfg.Algorithm,
		Seed:      s.cfg.Seed,
		Devices:   s.capture(lo, hi),
	}
}

// capture copies the sessions whose routing key lies in [lo, hi] into
// records sorted by device id. A first pass counts them, one shard lock at
// a time, and the copy allocates Devices at that count; see Snapshot.
func (s *Store) capture(lo, hi uint64) []DeviceSnapshot {
	in := func(id uint64) bool {
		k := RouteKey(id)
		return lo <= k && k <= hi
	}
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id := range sh.devices {
			if in(id) {
				n++
			}
		}
		sh.mu.Unlock()
	}
	devs := make([]DeviceSnapshot, 0, n)
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		devs = s.captureShard(sh, devs, in)
		sh.mu.Unlock()
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].Device < devs[j].Device })
	return devs
}

// captureShard appends sh's sessions that in admits to devs. Caller holds
// sh.mu.
//
// The arenas are sized from each device's arm count k: LogW, WExp and
// SumGain hold k floats, Tree k+1 and each switch-back window at most
// Policy.SwitchBackWindow; Available, X, CntGain and SlotsOn hold k ints
// and Explore at most k. ExportState appends into each slice's capacity,
// so handing it arena slices whose capacity is that bound makes it
// allocate nothing.
func (s *Store) captureShard(sh *shard, devs []DeviceSnapshot, in func(uint64) bool) []DeviceSnapshot {
	w := s.cfg.Policy.SwitchBackWindow
	cnt, nf, ni := 0, 0, 0
	for id, dev := range sh.devices {
		if !in(id) {
			continue
		}
		k := len(dev.policy.Available())
		cnt++
		nf += 4*k + 1 + 2*w
		ni += 5 * k
	}
	if len(devs)+cnt > cap(devs) { // joined since the count: grow by this shard's need
		devs = append(make([]DeviceSnapshot, 0, len(devs)+cnt), devs...)
	}
	fa, ia := make([]float64, nf), make([]int, ni)
	for id, dev := range sh.devices {
		if !in(id) {
			continue
		}
		devs = devs[:len(devs)+1]
		ds := &devs[len(devs)-1]
		ds.Device, ds.Pending, ds.Slot = id, dev.pending, dev.slot
		dev.src.ExportState(&ds.Rng)
		k := len(dev.policy.Available())
		st := &ds.State
		st.Available, ia = ia[:0:k], ia[k:]
		st.Explore, ia = ia[:0:k], ia[k:]
		st.X, ia = ia[:0:k], ia[k:]
		st.CntGain, ia = ia[:0:k], ia[k:]
		st.SlotsOn, ia = ia[:0:k], ia[k:]
		st.LogW, fa = fa[:0:k], fa[k:]
		st.WExp, fa = fa[:0:k], fa[k:]
		st.Tree, fa = fa[:0:k+1], fa[k+1:]
		st.SumGain, fa = fa[:0:k], fa[k:]
		st.Window, fa = fa[:0:w], fa[w:]
		st.PrevWindow, fa = fa[:0:w], fa[w:]
		dev.policy.ExportState(st)
	}
	return devs
}

// RemoveRange retires every device session whose routing key lies in
// [lo, hi], inclusive, without invoking eviction hooks, and reports how
// many it removed. It is the final step of a committed migration handoff:
// the range's state now lives on the gaining peer, so the local copies are
// surplus, not evictions, and are left to the garbage collector rather
// than pooled.
func (s *Store) RemoveRange(lo, hi uint64) int {
	removed := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id := range sh.devices {
			if k := RouteKey(id); k < lo || k > hi {
				continue
			}
			delete(sh.devices, id)
			s.devices.Add(-1)
			removed++
		}
		sh.mu.Unlock()
	}
	return removed
}

// Encode writes the snapshot as a gob stream.
func (sn *Snapshot) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(sn); err != nil {
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot and validates its header and every
// device record, so a corrupt file fails here rather than half-applying in
// Restore.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := gob.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("serve: decode snapshot: %w", err)
	}
	if sn.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, want %d", sn.Version, snapshotVersion)
	}
	for i := range sn.Devices {
		ds := &sn.Devices[i]
		if err := ds.Validate(); err != nil {
			return nil, fmt.Errorf("serve: snapshot device %d: %w", ds.Device, err)
		}
		if i > 0 && sn.Devices[i-1].Device >= ds.Device {
			return nil, fmt.Errorf("serve: snapshot devices not strictly ascending at %d", ds.Device)
		}
	}
	return &sn, nil
}

// Restore replaces the store's device sessions with the snapshot's. The
// snapshot must come from a store with the same algorithm and seed — those
// are part of the determinism contract, not per-device state. Existing
// sessions are dropped, not pooled, so the replaced store is garbage once
// Restore returns; restored sessions resume bit-identical to never having
// stopped.
func (s *Store) Restore(sn *Snapshot) error {
	if sn.Version != snapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, want %d", sn.Version, snapshotVersion)
	}
	if sn.Algorithm != s.cfg.Algorithm {
		return fmt.Errorf("serve: snapshot is %v state, store serves %v", sn.Algorithm, s.cfg.Algorithm)
	}
	if sn.Seed != s.cfg.Seed {
		return fmt.Errorf("serve: snapshot seed %d, store seed %d", sn.Seed, s.cfg.Seed)
	}
	restored, err := s.buildDevices(sn)
	if err != nil {
		return err
	}
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		s.devices.Add(-int64(len(sh.devices)))
		clear(sh.devices)
		sh.mu.Unlock()
	}
	for i := range sn.Devices {
		id := sn.Devices[i].Device
		sh := &s.shards[s.shardIndex(id)]
		sh.mu.Lock()
		sh.devices[id] = restored[i]
		sh.mu.Unlock()
		s.devices.Add(1)
	}
	s.dropped.Store(sn.Dropped)
	return nil
}

// buildDevices reconstructs every session in the snapshot before any live
// state is touched, so a corrupt or out-of-bounds record cannot leave a
// store half-replaced. Each session is built in place in one new record,
// its generator state set, not seeded. Shared by Restore and RestoreRange.
func (s *Store) buildDevices(sn *Snapshot) ([]*device, error) {
	var now int64
	if s.cfg.EvictAfter > 0 {
		// Idle age does not survive a restart (lastTouch is bookkeeping, not
		// snapshot state): restored sessions count as just-touched, so a
		// sweep right after boot cannot mass-evict everything we restored.
		now = s.cfg.Clock().UnixNano()
	}
	restored := make([]*device, len(sn.Devices))
	for i := range sn.Devices {
		ds := &sn.Devices[i]
		if err := s.CheckRecord(ds); err != nil {
			return nil, err
		}
		dev := new(device)
		dev.init(&s.cfg, ds.State.Available)
		dev.src.SetState(ds.Rng)
		if err := dev.policy.ImportState(&ds.State, &dev.rng); err != nil {
			return nil, fmt.Errorf("serve: snapshot device %d: %w", ds.Device, err)
		}
		dev.pending, dev.slot, dev.lastTouch = ds.Pending, ds.Slot, now
		restored[i] = dev
	}
	return restored, nil
}

// CheckRecord reports whether ds can restore into this store: it must
// pass Validate, keep its switch-back windows within the policy's
// SwitchBackWindow (core.PolicyState.ValidateFor), and hold no more arms
// than MaxArms, the bound Select holds live requests to. Both restore
// paths call it before touching live state, and fleet staging calls it
// when a stripe is offered, so a commit cannot fail on a record staging
// accepted. The error names the device.
func (s *Store) CheckRecord(ds *DeviceSnapshot) error {
	err := ds.State.ValidateFor(s.cfg.Policy)
	if err == nil {
		err = ds.Rng.Validate()
	}
	if k := len(ds.State.Available); err == nil && k > s.cfg.MaxArms {
		err = fmt.Errorf("%d arms exceeds the %d limit", k, s.cfg.MaxArms)
	}
	if err != nil {
		return fmt.Errorf("serve: snapshot device %d: %w", ds.Device, err)
	}
	return nil
}

// RestoreRange merges the snapshot's device sessions into the store
// without disturbing sessions outside it — the receiving half of a
// migration handoff, where Restore's replace-everything contract would
// destroy the peer's own devices. The snapshot must match the store's
// algorithm and seed; its Dropped count is ignored (the counter stays
// with the draining store). A session that already exists for a restored
// id is overwritten, and left to the garbage collector: the incoming copy
// is the newer truth, cut after writes to the range were barred on the old
// owner.
func (s *Store) RestoreRange(sn *Snapshot) error {
	if sn.Version != snapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, want %d", sn.Version, snapshotVersion)
	}
	if sn.Algorithm != s.cfg.Algorithm {
		return fmt.Errorf("serve: snapshot is %v state, store serves %v", sn.Algorithm, s.cfg.Algorithm)
	}
	if sn.Seed != s.cfg.Seed {
		return fmt.Errorf("serve: snapshot seed %d, store seed %d", sn.Seed, s.cfg.Seed)
	}
	restored, err := s.buildDevices(sn)
	if err != nil {
		return err
	}
	for i := range sn.Devices {
		id := sn.Devices[i].Device
		sh := &s.shards[s.shardIndex(id)]
		sh.mu.Lock()
		if sh.devices[id] != nil {
			s.devices.Add(-1)
		}
		sh.devices[id] = restored[i]
		sh.mu.Unlock()
		s.devices.Add(1)
	}
	return nil
}

// SaveFile snapshots the store to path atomically: the bytes land in a
// temporary file in the same directory and are renamed over the target, so
// a crash mid-write leaves the previous snapshot intact.
func (s *Store) SaveFile(path string) error {
	sn := s.Snapshot()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := sn.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	return nil
}

// LoadFile restores the store from a snapshot file written by SaveFile.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: load snapshot: %w", err)
	}
	defer f.Close()
	sn, err := ReadSnapshot(f)
	if err != nil {
		return err
	}
	return s.Restore(sn)
}
