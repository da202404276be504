package serve

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"smartexp3/internal/core"
	"smartexp3/internal/rngutil"
)

// reward is the tests' deterministic environment: a fixed arm-quality
// ordering perturbed per device and slot, so different devices learn
// different favorites and scripts are reproducible.
func reward(device uint64, arm, slot int) float64 {
	x := mix64(device ^ uint64(arm)*0x9e37 ^ uint64(slot)*0x85eb)
	base := float64(arm%5+1) / 6
	noise := float64(x%1000) / 10000
	r := base + noise
	if r > 1 {
		r = 1
	}
	return r
}

func newTestStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drive runs a fixed select/feedback script and returns every arm chosen.
func drive(t testing.TB, s *Store, devices []uint64, arms []int, slots int) []int {
	t.Helper()
	var out []int
	for slot := 0; slot < slots; slot++ {
		for _, dev := range devices {
			arm, sl, err := s.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Feedback(dev, arm, sl, reward(dev, arm, slot)) {
				t.Fatalf("slot %d device %d: feedback for pending arm %d not applied", slot, dev, arm)
			}
			out = append(out, arm)
		}
	}
	return out
}

func TestStoreSelectFeedbackRoundTrips(t *testing.T) {
	s := newTestStore(t, Config{})
	devices := []uint64{1, 2, 3}
	arms := []int{10, 20, 30}
	got := drive(t, s, devices, arms, 200)
	if len(got) != 600 {
		t.Fatalf("drove %d selections, want 600", len(got))
	}
	for i, arm := range got {
		if arm != 10 && arm != 20 && arm != 30 {
			t.Fatalf("selection %d returned arm %d outside the arm set", i, arm)
		}
	}
	if n := s.Devices(); n != 3 {
		t.Fatalf("store tracks %d devices, want 3", n)
	}
	if d := s.Dropped(); d != 0 {
		t.Fatalf("clean script dropped %d reports", d)
	}
}

// TestStoreDeterministicAcrossShardCounts pins the sharding invariant:
// shard count is a concurrency knob, never a behavior knob. The same script
// against 1 shard and 64 shards must select identically.
func TestStoreDeterministicAcrossShardCounts(t *testing.T) {
	devices := []uint64{7, 1 << 40, 99999, 3}
	arms := []int{0, 1, 2, 5}
	a := drive(t, newTestStore(t, Config{Shards: 1}), devices, arms, 150)
	b := drive(t, newTestStore(t, Config{Shards: 64}), devices, arms, 150)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection %d: 1-shard store chose %d, 64-shard store chose %d", i, a[i], b[i])
		}
	}
}

// TestStoreDevicesAreIndependentStreams pins the child-seed contract:
// adding traffic for new devices must not perturb an existing device's
// decision stream.
func TestStoreDevicesAreIndependentStreams(t *testing.T) {
	arms := []int{1, 2, 3}
	alone := drive(t, newTestStore(t, Config{}), []uint64{5}, arms, 120)
	crowded := newTestStore(t, Config{})
	var got []int
	for slot := 0; slot < 120; slot++ {
		for _, dev := range []uint64{11, 5, 23} {
			arm, sl, err := crowded.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			crowded.Feedback(dev, arm, sl, reward(dev, arm, slot))
			if dev == 5 {
				got = append(got, arm)
			}
		}
	}
	for i := range alone {
		if alone[i] != got[i] {
			t.Fatalf("slot %d: device 5 chose %d alone but %d in a crowd", i, alone[i], got[i])
		}
	}
}

func TestStoreSelectIsIdempotentUntilFeedback(t *testing.T) {
	s := newTestStore(t, Config{})
	arms := []int{1, 2, 3}
	first, firstSlot, err := s.Select(9, arms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, slotAgain, err := s.Select(9, arms)
		if err != nil {
			t.Fatal(err)
		}
		if again != first || slotAgain != firstSlot {
			t.Fatalf("retry %d re-selected arm %d slot %d, want the pending arm %d slot %d",
				i, again, slotAgain, first, firstSlot)
		}
	}
	if d := s.Dropped(); d != 0 {
		t.Fatalf("idempotent retries counted as %d drops", d)
	}
	if !s.Feedback(9, first, firstSlot, 0.5) {
		t.Fatal("feedback for the pending arm was not applied")
	}
	if s.Feedback(9, first, firstSlot, 0.5) {
		t.Fatal("duplicate feedback was applied twice")
	}
	if d := s.Dropped(); d != 1 {
		t.Fatalf("duplicate feedback counted as %d drops, want 1", d)
	}
	// The next selection reuses the arm space but not the slot: stale
	// feedback quoting the settled slot must not credit it, even when the
	// policy picks the same arm again.
	next, nextSlot, err := s.Select(9, arms)
	if err != nil {
		t.Fatal(err)
	}
	if nextSlot == firstSlot {
		t.Fatalf("new selection reused slot %d", firstSlot)
	}
	if s.Feedback(9, next, firstSlot, 0.5) {
		t.Fatal("feedback quoting a settled slot was applied")
	}
	if !s.Feedback(9, next, nextSlot, 0.5) {
		t.Fatal("feedback for the new slot was not applied")
	}
}

// TestStoreSelectDoesNotRetainArms pins what the serve connection loop
// relies on when it decodes every request's arm set into one reused
// slice: Select copies the arm set on every path that keeps it — a fresh
// join, a pooled re-join (Reinit) and an arm-set change (SetAvailable) —
// so a caller scribbling over its buffer after each call decides exactly
// like one that passes fresh slices.
func TestStoreSelectDoesNotRetainArms(t *testing.T) {
	fresh := newTestStore(t, Config{})
	reused := newTestStore(t, Config{})
	buf := make([]int, 0, 4)
	sets := [][]int{{1, 2, 3}, {1, 2, 3}, {2, 3, 7}, {2, 3, 7}, {4, 5}, {1, 2, 3}}
	for round := 0; round < 3; round++ {
		for i, set := range sets {
			want, wantSlot, err := fresh.Select(6, append([]int(nil), set...))
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf[:0], set...)
			got, gotSlot, err := reused.Select(6, buf)
			if err != nil {
				t.Fatal(err)
			}
			for j := range buf {
				buf[j] = -1 - j // the next request overwrites the storage
			}
			if got != want || gotSlot != wantSlot {
				t.Fatalf("round %d request %d: reused buffer selected %d slot %d, fresh slices %d slot %d",
					round, i, got, gotSlot, want, wantSlot)
			}
			if i%2 == 1 {
				fresh.Feedback(6, want, wantSlot, 0.5)
				reused.Feedback(6, got, gotSlot, 0.5)
			}
		}
		fresh.Release(6) // the next round re-joins from the pool
		reused.Release(6)
	}
}

func TestStoreSelectSettlesAbandonedSlotOnArmChange(t *testing.T) {
	s := newTestStore(t, Config{})
	if _, _, err := s.Select(4, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// No feedback arrives; the device moves and the arm set changes.
	arm, sl, err := s.Select(4, []int{2, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 2 && arm != 3 && arm != 7 {
		t.Fatalf("re-selection returned arm %d outside the new arm set", arm)
	}
	if sl != 1 {
		t.Fatalf("abandoned slot did not advance the cursor: slot %d, want 1", sl)
	}
	if d := s.Dropped(); d != 1 {
		t.Fatalf("abandoned slot counted as %d drops, want 1", d)
	}
	if !s.Feedback(4, arm, sl, 0.9) {
		t.Fatal("feedback after the arm change was not applied")
	}
}

func TestStoreValidatesRequests(t *testing.T) {
	s := newTestStore(t, Config{MaxArms: 4})
	cases := []struct {
		name string
		arms []int
		want string
	}{
		{"empty", nil, "empty arm set"},
		{"descending", []int{3, 1}, "strictly ascending"},
		{"duplicate", []int{1, 1, 2}, "strictly ascending"},
		{"too many", []int{1, 2, 3, 4, 5}, "exceeds"},
	}
	for _, tc := range cases {
		if _, _, err := s.Select(1, tc.arms); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got error %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if n := s.Devices(); n != 0 {
		t.Fatalf("rejected requests created %d device sessions", n)
	}
	if _, err := NewStore(Config{Algorithm: core.AlgGreedy}); err == nil {
		t.Fatal("NewStore accepted an algorithm without exportable state")
	}
}

func TestStoreReleasePoolsAndReseeds(t *testing.T) {
	s := newTestStore(t, Config{Shards: 1})
	arms := []int{1, 2, 3}
	first := drive(t, s, []uint64{77}, arms, 50)
	if !s.Release(77) {
		t.Fatal("release of an active device returned false")
	}
	if s.Release(77) {
		t.Fatal("double release returned true")
	}
	if n := s.Devices(); n != 0 {
		t.Fatalf("store tracks %d devices after release", n)
	}
	// The same id re-joins: the pooled policy must restart from the
	// device's root seed, exactly as the first session did.
	second := drive(t, s, []uint64{77}, arms, 50)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("slot %d: fresh session chose %d, pooled re-acquire chose %d", i, first[i], second[i])
		}
	}
}

func TestStoreApplyBatchLocksEachShardOnce(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	devices := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	arms := []int{1, 2}
	items := make([]FeedbackItem, 0, len(devices))
	for _, dev := range devices {
		arm, sl, err := s.Select(dev, arms)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, FeedbackItem{Device: dev, Arm: arm, Slot: sl, Reward: 0.5})
	}
	// One report for a device that never selected: it must be counted
	// dropped, not applied.
	items = append(items, FeedbackItem{Device: 999, Arm: 1, Reward: 0.5})
	if applied, _, _ := s.ApplyBatchOwned(items, nil); applied != len(devices) {
		t.Fatalf("batch applied %d items, want %d", applied, len(devices))
	}
	if d := s.Dropped(); d != 1 {
		t.Fatalf("batch counted %d drops, want 1", d)
	}
}

// TestStoreWarmSelectDoesNotAllocate is the tentpole's perf contract: after
// a device's first slot, the Select/Feedback hot path performs no heap
// allocation (the benchmark gate in BENCH_runner.json enforces the same
// bound over time).
func TestStoreWarmSelectDoesNotAllocate(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	arms := []int{1, 2, 3, 4}
	drive(t, s, []uint64{6}, arms, 300) // warm: past explore-first and pool growth
	slot := 1000
	allocs := testing.AllocsPerRun(200, func() {
		arm, sl, err := s.Select(6, arms)
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(6, arm, sl, reward(6, arm, slot))
		slot++
	})
	if allocs > 1 {
		t.Fatalf("warm Select+Feedback allocates %.1f times per op, want ≤ 1", allocs)
	}
}

// TestStoreArmSetChangeDoesNotAllocate is the AllocsPerRun gate behind
// Select's //repolint:allocfree marker. A warm device cycles the
// serve-churn arm sets (plus a 16-arm one), so each op covers both Select
// branches: an arm-set change re-indexes the policy, an unchanged set
// draws directly, and a change under an unanswered selection settles it
// first. None of them may allocate.
func TestStoreArmSetChangeDoesNotAllocate(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	sets := [][]int{
		{0, 1, 2}, {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	}
	slot := 0
	op := func() {
		arms := sets[slot%len(sets)]
		if _, _, err := s.Select(6, arms); err != nil { // left unanswered
			t.Fatal(err)
		}
		arms = sets[(slot+2)%len(sets)]
		for i := 0; i < 2; i++ { // a change, then the same set again
			arm, sl, err := s.Select(6, arms)
			if err != nil {
				t.Fatal(err)
			}
			s.Feedback(6, arm, sl, reward(6, arm, slot))
		}
		slot++
	}
	for i := 0; i < 300; i++ { // warm: past explore-first, buffers at the largest set
		op()
	}
	if allocs := testing.AllocsPerRun(200, op); allocs > 0 {
		t.Fatalf("warm arm-set change allocates %.1f times per op, want 0", allocs)
	}
}

// TestStoreChurnIsAllocationFreeWarm pins the Reinitializer pooling: once a
// shard's pool has a retiree, a join-leave cycle allocates nothing.
func TestStoreChurnIsAllocationFreeWarm(t *testing.T) {
	s := newTestStore(t, Config{Shards: 1})
	arms := []int{1, 2, 3}
	// Prime the pool with one retiree.
	if _, _, err := s.Select(1, arms); err != nil {
		t.Fatal(err)
	}
	s.Release(1)
	allocs := testing.AllocsPerRun(100, func() {
		arm, sl, err := s.Select(2, arms)
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(2, arm, sl, 0.5)
		s.Release(2)
	})
	if allocs > 0 {
		t.Fatalf("warm churn allocates %.1f times per join-leave cycle, want 0", allocs)
	}
}

// TestStoreJoinAllocatesOneRecord pins the device record: with the shard's
// map already grown and nothing pooled, a new device's join allocates
// exactly one object, which holds the policy, its generator and its
// per-arm state.
func TestStoreJoinAllocatesOneRecord(t *testing.T) {
	s := newTestStore(t, Config{Shards: 1})
	arms := []int{0, 2, 4, 6, 8}
	const joins = 256
	for id := uint64(0); id < 2*joins; id++ { // grow the map past every join below
		if _, _, err := s.Select(id, arms); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.RemoveRange(0, math.MaxUint64); n != 2*joins { // retires without pooling
		t.Fatalf("removed %d devices, want %d", n, 2*joins)
	}
	id := uint64(0)
	allocs := testing.AllocsPerRun(joins-1, func() {
		if _, _, err := s.Select(id, arms); err != nil {
			t.Fatal(err)
		}
		id++
	})
	if allocs != 1 {
		t.Fatalf("a join allocates %.2f objects, want exactly 1", allocs)
	}
}

// TestDeviceFitsItsSizeClass pins the device record inside the Go
// allocator's 1,536 B size class (the one below is 1,408 B). The record
// holds its generator by value, 24 B with no ring until the 334th draw
// (rngutil's TestSourceFitsItsSizeClass), so a young device's join costs
// this one class. The class has 8 B of slack, less than one more inline
// arm (80 B); deviceArms stays at serve-churn's largest arm set, 8. It also pins the inline arrays to exactly what the policy carves for
// deviceArms arms under the default config, SetAvailable's sort buffer
// included.
func TestDeviceFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(device{}); got <= 1408 || got > 1536 {
		t.Fatalf("device is %d B, want (1408, 1536] B: the allocator's 1,536 B size class", got)
	}
	var dev device
	floats, ints := core.SmartEXP3Storage(deviceArms, core.DefaultConfig())
	if ints += deviceArms; floats != len(dev.floats) || ints != len(dev.ints) {
		t.Fatalf("inline storage holds %d floats and %d ints, %d arms need %d and %d",
			len(dev.floats), len(dev.ints), deviceArms, floats, ints)
	}
}

// TestYoungDeviceHoldsNoRing joins 4,096 devices and drives each through
// 40 decisions, far short of its generator's 334th draw. The heap they
// keep, measured after a collection, is at most the record's 1,536 B size
// class and a tenth more per device, the tenth for the shards' maps: a
// young device holds no generator ring, which would cost each 4,864 B
// more. Every device's generator still exports the compact form.
func TestYoungDeviceHoldsNoRing(t *testing.T) {
	const devices, slots = 4096, 40
	s := newTestStore(t, Config{Shards: 4})
	arms := []int{1, 2, 3, 4, 5}
	ids := make([]uint64, devices)
	for i := range ids {
		ids[i] = uint64(i)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	drive(t, s, ids, arms, slots)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perDevice := (float64(ms.HeapAlloc) - float64(before)) / devices
	runtime.KeepAlive(s)
	t.Logf("a young device keeps %.0f B of heap", perDevice)
	if limit := 1536 * 1.1; perDevice > limit {
		t.Fatalf("a young device keeps %.0f B of heap, want at most %.0f B", perDevice, limit)
	}
	var st rngutil.SourceState
	for si := range s.shards {
		for id, dev := range s.shards[si].devices {
			if dev.src.ExportState(&st); st.Seed == 0 {
				t.Fatalf("device %d left the compact form within %d decisions", id, slots)
			}
		}
	}
}

// TestDeviceOutgrowsItsInlineStorage drives one device from a 4-arm set to
// a 12-arm one, past its record's inline room, and back. It must decide
// like a policy built on the heap by core.New from the same seed, snapshot
// to the bytes that policy exports, and restore into a fresh store that
// goes on deciding identically.
func TestDeviceOutgrowsItsInlineStorage(t *testing.T) {
	const dev, slots = 9, 600
	s := newTestStore(t, Config{})
	small := []int{1, 3, 5, 7}
	wide := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	arms := func(slot int) []int {
		if slot >= 200 && slot < 400 {
			return wide
		}
		return small
	}
	src := rngutil.NewSource(rngutil.ChildSeed(s.Config().Seed, dev))
	ref, err := core.New(core.AlgSmartEXP3, small, core.DefaultConfig(), rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	decide := func(s *Store, slot int) int {
		arm, sl, err := s.Select(dev, arms(slot))
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(dev, arm, sl, reward(dev, arm, slot))
		return arm
	}
	for slot := 0; slot < slots; slot++ {
		if !equalArms(ref.Available(), arms(slot)) {
			ref.SetAvailable(arms(slot))
		}
		want := ref.Select()
		ref.Observe(reward(dev, want, slot))
		if got := decide(s, slot); got != want {
			t.Fatalf("slot %d: store chose %d, heap-built policy %d", slot, got, want)
		}
	}

	ds := DeviceSnapshot{Device: dev, Pending: -1, Slot: slots}
	src.ExportState(&ds.Rng)
	ref.(*core.SmartEXP3).ExportState(&ds.State)
	want := Snapshot{Version: snapshotVersion, Algorithm: core.AlgSmartEXP3, Seed: s.Config().Seed,
		Devices: []DeviceRecord{ds.Record()}}
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnapshot(t, s), buf.Bytes()) {
		t.Fatal("the grown and shrunk device snapshots to other bytes than the heap-built policy")
	}

	fresh := newTestStore(t, Config{})
	if err := fresh.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for slot := slots; slot < slots+300; slot++ {
		if got, want := decide(fresh, slot), decide(s, slot); got != want {
			t.Fatalf("slot %d: restored store chose %d, original %d", slot, got, want)
		}
	}
	if !bytes.Equal(encodeSnapshot(t, fresh), encodeSnapshot(t, s)) {
		t.Fatal("restored and original stores end in different snapshot bytes")
	}
}

// TestStoreEvictIdleRetiresStaleDevices pins the TTL sweep: only devices
// idle past EvictAfter go, and a re-joining evicted device replays
// deterministically from its root seed — eviction is exactly a Release
// the client never sent.
func TestStoreEvictIdleRetiresStaleDevices(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestStore(t, Config{
		Shards:     2,
		EvictAfter: time.Minute,
		Clock:      func() time.Time { return now },
	})
	arms := []int{1, 2, 3}
	first := drive(t, s, []uint64{10}, arms, 30)
	// Leave device 10 with an unanswered selection crossing the eviction.
	if _, _, err := s.Select(10, arms); err != nil {
		t.Fatal(err)
	}
	now = now.Add(50 * time.Second)
	drive(t, s, []uint64{11}, arms, 1) // device 11 stays fresh
	if n := s.EvictIdle(); n != 0 {
		t.Fatalf("sweep evicted %d devices before the TTL", n)
	}
	now = now.Add(20 * time.Second) // device 10 idle 70s, device 11 idle 20s
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("sweep evicted %d devices, want 1", n)
	}
	if got := s.Evicted(); got != 1 {
		t.Fatalf("Evicted() = %d, want 1", got)
	}
	if n := s.Devices(); n != 1 {
		t.Fatalf("store tracks %d devices after eviction, want 1", n)
	}
	// The evicted id re-joins: same script, same decisions as the first
	// session — the determinism contract survives the eviction.
	second := drive(t, s, []uint64{10}, arms, 30)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("slot %d: pre-eviction session chose %d, re-joined session chose %d", i, first[i], second[i])
		}
	}
}

// TestStoreEvictIdleDisabledIsNoOp pins the zero-cost default: without
// EvictAfter the sweep does nothing and no idle bookkeeping runs.
func TestStoreEvictIdleDisabledIsNoOp(t *testing.T) {
	s := newTestStore(t, Config{})
	drive(t, s, []uint64{1, 2}, []int{1, 2}, 5)
	if n := s.EvictIdle(); n != 0 {
		t.Fatalf("disabled sweep evicted %d devices", n)
	}
	if n := s.Devices(); n != 2 {
		t.Fatalf("store tracks %d devices, want 2", n)
	}
}

// TestStoreWarmSelectDoesNotAllocateWithEviction holds the zero-alloc warm
// path with idle bookkeeping enabled: the lastTouch stamp must not cost an
// allocation.
func TestStoreWarmSelectDoesNotAllocateWithEviction(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2, EvictAfter: time.Hour})
	arms := []int{1, 2, 3, 4}
	drive(t, s, []uint64{6}, arms, 300)
	slot := 1000
	allocs := testing.AllocsPerRun(200, func() {
		arm, sl, err := s.Select(6, arms)
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(6, arm, sl, reward(6, arm, slot))
		slot++
	})
	if allocs > 0 {
		t.Fatalf("warm Select+Feedback with eviction enabled allocates %.1f times per op, want 0", allocs)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Algorithm != core.AlgSmartEXP3 {
		t.Fatalf("default algorithm %v, want Smart EXP3", cfg.Algorithm)
	}
	if cfg.Shards <= 0 || cfg.Shards&(cfg.Shards-1) != 0 {
		t.Fatalf("default shard count %d is not a positive power of two", cfg.Shards)
	}
	if got := (Config{Shards: 5}).withDefaults().Shards; got != 8 {
		t.Fatalf("Shards 5 rounds to %d, want 8", got)
	}
	if cfg.MaxArms != defaultMaxArms {
		t.Fatalf("default MaxArms %d, want %d", cfg.MaxArms, defaultMaxArms)
	}
	if cfg.Policy.Beta != core.DefaultConfig().Beta {
		t.Fatalf("zero Policy did not resolve to DefaultConfig")
	}
}

// TestApplyBatchWarmDoesNotAllocate is the AllocsPerRun gate behind the
// //repolint:allocfree marker on ApplyBatchOwned: settling buffered feedback for
// warm devices must not allocate, however the batch interleaves shards.
func TestApplyBatchWarmDoesNotAllocate(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	arms := []int{1, 2, 3, 4}
	devices := []uint64{3, 11, 42}
	drive(t, s, devices, arms, 300)
	items := make([]FeedbackItem, len(devices))
	slot := 1000
	allocs := testing.AllocsPerRun(200, func() {
		for i, id := range devices {
			arm, sl, err := s.Select(id, arms)
			if err != nil {
				t.Fatal(err)
			}
			items[i] = FeedbackItem{Device: id, Arm: arm, Slot: sl, Reward: reward(id, arm, slot)}
		}
		slot++
		if n, _, _ := s.ApplyBatchOwned(items, nil); n != len(items) {
			t.Fatalf("ApplyBatchOwned applied %d of %d items", n, len(items))
		}
	})
	if allocs > 0 {
		t.Fatalf("warm ApplyBatchOwned allocates %.2f objects per batch, want 0", allocs)
	}
}

// TestBulkRetirementsDoNotPool pins which retirements fill the shard
// pools: only Release. EvictIdle, RemoveRange and Restore each retire up to
// a whole store at once and leave those sessions to the garbage collector,
// so an eviction sweep frees what it evicts and a Restore over a warm store
// does not keep the replaced sessions alive beside the restored ones.
func TestBulkRetirementsDoNotPool(t *testing.T) {
	const n = 4096
	now := time.Unix(1000, 0)
	cfg := Config{Shards: 8, EvictAfter: time.Minute, Clock: func() time.Time { return now }}
	s := newTestStore(t, cfg)
	join := func() {
		for d := uint64(0); d < n; d++ {
			arm, sl, err := s.Select(d, []int{1, 2, 3, 4}[:2+d%3])
			if err != nil {
				t.Fatal(err)
			}
			s.Feedback(d, arm, sl, reward(d, arm, 0))
		}
	}
	pooled := func(step string) {
		t.Helper()
		for si := range s.shards {
			if got := len(s.shards[si].free); got != 0 {
				t.Fatalf("after %s shard %d pools %d sessions, want 0", step, si, got)
			}
		}
	}
	join()
	sn := s.Snapshot()
	now = now.Add(2 * time.Minute)
	if got := s.EvictIdle(); got != n {
		t.Fatalf("EvictIdle retired %d devices, want %d", got, n)
	}
	pooled("EvictIdle")
	join()
	removed := s.RemoveRange(0, math.MaxUint64/2)
	if removed == 0 || removed == n {
		t.Fatalf("RemoveRange retired %d of %d devices, want a part", removed, n)
	}
	pooled("RemoveRange")
	if err := s.Restore(sn); err != nil {
		t.Fatal(err)
	}
	pooled("Restore")
	if got := s.Devices(); got != n {
		t.Fatalf("store holds %d devices after Restore, want %d", got, n)
	}
	// Release still pools.
	s.Release(7)
	if got := len(s.shards[s.shardIndex(7)].free); got != 1 {
		t.Fatalf("Release pooled %d sessions, want 1", got)
	}
}
