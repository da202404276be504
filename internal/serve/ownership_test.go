package serve

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"time"
)

// splitAt builds an ownership function that owns keys <= pivot when low
// is true (keys > pivot otherwise), quoting the given epoch and owner
// address on rejections.
func splitAt(pivot uint64, low bool, epoch uint64, owner string) OwnershipFunc {
	return func(key uint64) (bool, uint64, string) {
		if (key <= pivot) == low {
			return true, epoch, ""
		}
		return false, epoch, owner
	}
}

func TestOwnershipRejectsSelectFeedbackAndRelease(t *testing.T) {
	s := newTestStore(t, Config{})
	arms := []int{1, 2, 3}
	const pivot = 1 << 63

	// Find one device on each side of the pivot.
	var owned, foreign uint64
	for id := uint64(1); ; id++ {
		if RouteKey(id) <= pivot {
			owned = id
		} else {
			foreign = id
		}
		if owned != 0 && foreign != 0 {
			break
		}
	}

	// Create a session for the soon-foreign device before the split, so the
	// rejection paths run against live state.
	if _, _, err := s.Select(foreign, arms); err != nil {
		t.Fatal(err)
	}
	s.SetOwnership(splitAt(pivot, true, 7, "peer-b:1234"))

	arm, slot, err := s.Select(owned, arms)
	if err != nil {
		t.Fatalf("owned device rejected: %v", err)
	}
	if !s.Feedback(owned, arm, slot, 0.5) {
		t.Fatal("owned device's feedback not applied")
	}

	_, _, err = s.Select(foreign, arms)
	var no *NotOwnerError
	if !errors.As(err, &no) {
		t.Fatalf("foreign Select returned %v, want *NotOwnerError", err)
	}
	if no.Epoch != 7 || no.Owner != "peer-b:1234" {
		t.Fatalf("redirect says epoch %d owner %q, want 7 %q", no.Epoch, no.Owner, "peer-b:1234")
	}
	before := s.Dropped()
	if s.Feedback(foreign, 1, 0, 0.5) {
		t.Fatal("foreign feedback applied")
	}
	if d := s.Dropped(); d != before {
		t.Fatalf("foreign feedback counted as dropped (%d -> %d); it should be refused silently", before, d)
	}
	if s.Release(foreign) {
		t.Fatal("foreign Release retired a mid-migration session")
	}
	if n := s.Devices(); n != 2 {
		t.Fatalf("store holds %d devices, want 2 (foreign session must survive)", n)
	}

	// Clearing the filter restores full ownership.
	s.SetOwnership(nil)
	if _, _, err := s.Select(foreign, arms); err != nil {
		t.Fatalf("Select after clearing ownership: %v", err)
	}
}

func TestApplyBatchOwnedPartitionsRejects(t *testing.T) {
	s := newTestStore(t, Config{})
	arms := []int{0, 1}
	const pivot = 1 << 63

	// Establish pending selections for a mix of owned and foreign devices.
	var items []FeedbackItem
	for id := uint64(1); id <= 12; id++ {
		arm, slot, err := s.Select(id, arms)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, FeedbackItem{Device: id, Arm: arm, Slot: slot, Reward: 0.5})
	}
	s.SetOwnership(splitAt(pivot, true, 9, "peer-b"))

	applied, rej, epoch := s.ApplyBatchOwned(items, nil)
	wantRej := 0
	for _, it := range items {
		if RouteKey(it.Device) > pivot {
			wantRej++
		}
	}
	if wantRej == 0 || wantRej == len(items) {
		t.Fatalf("test ids landed all on one side of the pivot (%d/%d rejected); pick a different pivot", wantRej, len(items))
	}
	if applied != len(items)-wantRej {
		t.Fatalf("applied %d, want %d", applied, len(items)-wantRej)
	}
	if len(rej) != wantRej {
		t.Fatalf("rejected %d items, want %d", len(rej), wantRej)
	}
	if epoch != 9 {
		t.Fatalf("rejection epoch %d, want 9", epoch)
	}
	if d := s.Dropped(); d != 0 {
		t.Fatalf("rejections counted as dropped: %d", d)
	}

	// Re-delivering the rejected items after ownership returns applies each
	// exactly once; a second delivery is slot-dropped.
	s.SetOwnership(nil)
	if n, _, _ := s.ApplyBatchOwned(rej, nil); n != len(rej) {
		t.Fatalf("re-delivery applied %d of %d", n, len(rej))
	}
	if n, _, _ := s.ApplyBatchOwned(rej, nil); n != 0 {
		t.Fatalf("duplicate delivery applied %d items; slots must dedup", n)
	}
}

// TestSnapshotRangeHandoffIsExact drives the full migration primitive at
// the store level: bar writes to a key range, cut it with SnapshotRange,
// restore it into a second store, remove it from the first — then finish
// the workload routed across both stores. The merged final state must be
// byte-identical to an uninterrupted single-store run.
func TestSnapshotRangeHandoffIsExact(t *testing.T) {
	cfg := Config{Seed: 77}
	single := newTestStore(t, cfg)
	a := newTestStore(t, cfg)
	b := newTestStore(t, cfg)
	arms := []int{3, 5, 9}
	devices := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	const pivot = 1 << 63

	step := func(s *Store, dev uint64, slot int) int {
		arm, sl, err := s.Select(dev, arms)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Feedback(dev, arm, sl, reward(dev, arm, slot)) {
			t.Fatalf("feedback not applied for device %d", dev)
		}
		return arm
	}

	// Phase 1: everything on store a (and the single-store control).
	for slot := 0; slot < 60; slot++ {
		for _, dev := range devices {
			if got, want := step(a, dev, slot), step(single, dev, slot); got != want {
				t.Fatalf("pre-migration slot %d device %d: fleet chose %d, single %d", slot, dev, got, want)
			}
		}
	}

	// Migrate keys > pivot from a to b: bar writes, cut, restore, drop.
	a.SetOwnership(splitAt(pivot, true, 2, "b"))
	cut := a.SnapshotRange(pivot+1, ^uint64(0))
	if len(cut.Devices) == 0 {
		t.Fatal("cut is empty; the pivot left nothing to migrate")
	}
	if err := b.RestoreRange(cut); err != nil {
		t.Fatal(err)
	}
	removed := a.RemoveRange(pivot+1, ^uint64(0))
	if removed != len(cut.Devices) {
		t.Fatalf("removed %d sessions, cut %d", removed, len(cut.Devices))
	}
	b.SetOwnership(splitAt(pivot, false, 2, "a"))

	// Phase 2: route by key.
	for slot := 60; slot < 120; slot++ {
		for _, dev := range devices {
			dst := a
			if RouteKey(dev) > pivot {
				dst = b
			}
			if got, want := step(dst, dev, slot), step(single, dev, slot); got != want {
				t.Fatalf("post-migration slot %d device %d: fleet chose %d, single %d", slot, dev, got, want)
			}
		}
	}

	// The merged fleet snapshot must equal the single-store snapshot.
	merged := a.Snapshot()
	merged.Devices = append(merged.Devices, b.Snapshot().Devices...)
	sort.Slice(merged.Devices, func(i, j int) bool { return merged.Devices[i].Device < merged.Devices[j].Device })
	want := single.Snapshot()
	merged.Dropped, want.Dropped = 0, 0
	var mb, wb bytes.Buffer
	if err := merged.Encode(&mb); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb.Bytes(), wb.Bytes()) {
		t.Fatal("merged post-migration snapshot differs from the single-store snapshot")
	}
}

func TestSnapshotRangePartitionsFullSnapshot(t *testing.T) {
	s := newTestStore(t, Config{})
	drive(t, s, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 2}, 40)
	full := s.Snapshot()
	const pivot = 1 << 62
	lowCut := s.SnapshotRange(0, pivot)
	highCut := s.SnapshotRange(pivot+1, ^uint64(0))
	if len(lowCut.Devices)+len(highCut.Devices) != len(full.Devices) {
		t.Fatalf("range cuts cover %d+%d devices, full snapshot %d",
			len(lowCut.Devices), len(highCut.Devices), len(full.Devices))
	}
	for _, ds := range lowCut.Devices {
		if RouteKey(ds.Device) > pivot {
			t.Fatalf("device %d (key %x) leaked into the low cut", ds.Device, RouteKey(ds.Device))
		}
	}
	for _, ds := range highCut.Devices {
		if RouteKey(ds.Device) <= pivot {
			t.Fatalf("device %d (key %x) leaked into the high cut", ds.Device, RouteKey(ds.Device))
		}
	}
	if lowCut.Dropped != 0 || highCut.Dropped != 0 {
		t.Fatal("range cuts must not carry the store-global drop counter")
	}
}

// TestEvictIdleSkipsUnownedDevices pins the drain-window guard: a device
// mid-migration (disowned but still resident) must not be retired by an
// idle sweep — the cut that was taken of it must stay the truth until
// commit removes it or abort re-owns it.
func TestEvictIdleSkipsUnownedDevices(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestStore(t, Config{
		Shards:     2,
		EvictAfter: time.Minute,
		Clock:      func() time.Time { return now },
	})
	arms := []int{1, 2}
	drive(t, s, []uint64{10, 11}, arms, 3)
	s.SetOwnership(func(key uint64) (bool, uint64, string) {
		return key != RouteKey(10), 4, "peer-b"
	})
	now = now.Add(2 * time.Minute) // both devices idle past the TTL
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("sweep evicted %d devices, want 1 (the disowned one must survive)", n)
	}
	if n := s.Devices(); n != 1 {
		t.Fatalf("store tracks %d devices, want the disowned survivor only", n)
	}
	s.SetOwnership(nil)
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("post-abort sweep evicted %d devices, want 1", n)
	}
}

// TestWireNotOwnerRedirectAndRejectedBounce drives the v3 redirect
// surface end to end: a Select for a foreign device comes back as
// *NotOwnerError (session intact), and feedback for foreign devices
// bounces in a Rejected frame to the OnRejected callback, from where
// re-delivery to the true owner applies exactly once.
func TestWireNotOwnerRedirectAndRejectedBounce(t *testing.T) {
	store, addr := startServer(t, Config{})
	arms := []int{1, 2, 3}
	const pivot = 1 << 63

	var owned, foreign uint64
	for id := uint64(1); owned == 0 || foreign == 0; id++ {
		if RouteKey(id) <= pivot {
			owned = id
		} else {
			foreign = id
		}
	}

	var bounced []FeedbackItem
	var bouncedEpoch uint64
	c, err := Dial(addr, ClientOptions{
		FrameTimeout: 30 * time.Second,
		OnRejected: func(epoch uint64, items []FeedbackItem) {
			bouncedEpoch = epoch
			bounced = append(bounced, items...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Take a selection for the foreign device before the split, so there is
	// a pending slot whose feedback will arrive after ownership moved.
	fArm, fSlot, err := c.SelectSlot(foreign, arms)
	if err != nil {
		t.Fatal(err)
	}
	store.SetOwnership(splitAt(pivot, true, 5, "peer-b:9"))

	if _, _, err := c.SelectSlot(owned, arms); err != nil {
		t.Fatalf("owned SelectSlot: %v", err)
	}
	_, _, err = c.SelectSlot(foreign, arms)
	var no *NotOwnerError
	if !errors.As(err, &no) {
		t.Fatalf("foreign SelectSlot returned %v, want *NotOwnerError", err)
	}
	if no.Epoch != 5 || no.Owner != "peer-b:9" {
		t.Fatalf("redirect = epoch %d owner %q, want 5 %q", no.Epoch, no.Owner, "peer-b:9")
	}
	if c.Reconnects() != 0 {
		t.Fatal("a redirect must not burn the connection")
	}

	// Feedback for the pre-split selection bounces; re-delivery applies.
	if err := c.FeedbackSlot(foreign, fArm, fSlot, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // flush + barrier; Rejected precedes the pong
		t.Fatal(err)
	}
	if len(bounced) != 1 || bounced[0].Device != foreign || bounced[0].Slot != fSlot {
		t.Fatalf("OnRejected saw %+v, want the foreign item back", bounced)
	}
	if bouncedEpoch != 5 {
		t.Fatalf("bounce quoted epoch %d, want 5", bouncedEpoch)
	}
	store.SetOwnership(nil) // "the owner": same store, ownership restored
	if err := c.EnqueueFeedback(bounced); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if d := store.Dropped(); d != 0 {
		t.Fatalf("re-delivered feedback dropped (%d); it should apply cleanly", d)
	}
	// A duplicate delivery is slot-deduped, not double-applied.
	if err := c.EnqueueFeedback(bounced); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if d := store.Dropped(); d != 1 {
		t.Fatalf("duplicate delivery dropped %d, want 1 (slot dedup)", d)
	}
}

func TestOwnedWarmSelectStillZeroAlloc(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	always := OwnershipFunc(func(key uint64) (bool, uint64, string) { return true, 3, "" })
	s.SetOwnership(always)
	arms := []int{1, 2, 3}
	dev := uint64(9)
	if _, _, err := s.Select(dev, arms); err != nil {
		t.Fatal(err)
	}
	batch := make([]FeedbackItem, 1)
	var rej []FeedbackItem
	slotNo := 0
	allocs := testing.AllocsPerRun(200, func() {
		arm, slot, err := s.Select(dev, arms)
		if err != nil {
			t.Fatal(err)
		}
		batch[0] = FeedbackItem{Device: dev, Arm: arm, Slot: slot, Reward: reward(dev, arm, slotNo)}
		var n int
		n, rej, _ = s.ApplyBatchOwned(batch, rej)
		if n != 1 || len(rej) != 0 {
			t.Fatalf("applied %d, rejected %d", n, len(rej))
		}
		slotNo++
	})
	if allocs != 0 {
		t.Fatalf("warm Select+ApplyBatchOwned with ownership installed allocates %.1f objects/op, want 0", allocs)
	}
}
