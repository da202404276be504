package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/core"
	"smartexp3/internal/rngutil"
)

// script is a deterministic request sequence with availability churn and a
// deliberately unanswered selection, exercising every snapshot-relevant
// store path. It returns all selections made.
func runScript(t *testing.T, s *Store, from, to int) []int {
	t.Helper()
	devices := []uint64{3, 8, 1 << 33}
	armSets := [][]int{
		{1, 2, 3, 4},
		{2, 3, 4},
		{1, 2, 3, 4, 9},
	}
	var out []int
	for slot := from; slot < to; slot++ {
		for _, dev := range devices {
			arms := armSets[(slot/40+int(dev))%len(armSets)]
			arm, sl, err := s.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, arm)
			// Device 8 loses every 50th report: a pending selection
			// crosses the snapshot boundary and must survive it.
			if dev == 8 && slot%50 == 49 {
				continue
			}
			s.Feedback(dev, arm, sl, reward(dev, arm, slot))
		}
		if slot == 90 {
			s.Release(8) // churn: device 8 re-joins from its root seed
		}
	}
	return out
}

func encodeSnapshot(t *testing.T, s *Store) []byte {
	t.Helper()
	return encodeStream(t, s.Snapshot())
}

// TestSnapshotRestoreIsByteIdentical is the satellite's property test: run
// a seeded script, snapshot mid-way, restore into a fresh store, replay the
// remainder — every subsequent draw and the final snapshot bytes must be
// byte-identical to the uninterrupted run.
func TestSnapshotRestoreIsByteIdentical(t *testing.T) {
	// cut lands right after slot 149, where device 8's feedback was lost:
	// an unanswered selection crosses the snapshot boundary.
	const cut, end = 150, 280

	uninterrupted := newTestStore(t, Config{})
	runScript(t, uninterrupted, 0, cut)
	interrupted := newTestStore(t, Config{})
	runScript(t, interrupted, 0, cut)

	mid := encodeSnapshot(t, interrupted)
	sn, err := ReadSnapshot(bytes.NewReader(mid))
	if err != nil {
		t.Fatal(err)
	}
	// "Restart": a brand-new store, different shard count on the new box.
	restored := newTestStore(t, Config{Shards: 16})
	if err := restored.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if restored.Devices() != uninterrupted.Devices() {
		t.Fatalf("restored store tracks %d devices, want %d", restored.Devices(), uninterrupted.Devices())
	}

	wantTail := runScript(t, uninterrupted, cut, end)
	gotTail := runScript(t, restored, cut, end)
	for i := range wantTail {
		if wantTail[i] != gotTail[i] {
			t.Fatalf("post-restore selection %d: restored store chose %d, uninterrupted chose %d", i, gotTail[i], wantTail[i])
		}
	}

	finalWant := encodeSnapshot(t, uninterrupted)
	finalGot := encodeSnapshot(t, restored)
	if !bytes.Equal(finalWant, finalGot) {
		t.Fatalf("final snapshots differ: %d vs %d bytes — restore is not lossless", len(finalWant), len(finalGot))
	}
	// And the mid-run snapshot itself is deterministic: a second identical
	// run encodes the same bytes.
	again := newTestStore(t, Config{Shards: 2})
	runScript(t, again, 0, cut)
	if !bytes.Equal(mid, encodeSnapshot(t, again)) {
		t.Fatal("two identical histories encoded different snapshot bytes")
	}
}

// TestSnapshotBytesIndependentOfEviction pins lastTouch out of the
// snapshot format: idle bookkeeping is operational state, and two stores
// with the same request history must encode identical bytes whether or not
// eviction is configured.
func TestSnapshotBytesIndependentOfEviction(t *testing.T) {
	plain := newTestStore(t, Config{})
	runScript(t, plain, 0, 60)
	now := time.Unix(7777, 0)
	evicting := newTestStore(t, Config{
		EvictAfter: time.Hour,
		Clock:      func() time.Time { now = now.Add(time.Second); return now },
	})
	runScript(t, evicting, 0, 60)
	if !bytes.Equal(encodeSnapshot(t, plain), encodeSnapshot(t, evicting)) {
		t.Fatal("idle bookkeeping leaked into the snapshot bytes")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")

	s := newTestStore(t, Config{})
	runScript(t, s, 0, 80)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want := runScript(t, s, 80, 120)

	restored := newTestStore(t, Config{})
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	got := runScript(t, restored, 80, 120)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("selection %d after file restore: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestRestoreRejectsMismatchedIdentity(t *testing.T) {
	s := newTestStore(t, Config{Seed: 42})
	runScript(t, s, 0, 10)
	sn := s.Snapshot()

	wrongSeed := newTestStore(t, Config{Seed: 43})
	if err := wrongSeed.Restore(sn); err == nil {
		t.Fatal("restore accepted a snapshot from a different seed")
	}
	badVersion := *sn
	badVersion.Version = snapshotVersion + 1
	var verr *VersionError
	if err := s.Restore(&badVersion); !errors.As(err, &verr) || verr.Got != snapshotVersion+1 {
		t.Fatalf("restore of a future snapshot version: got %v, want a *VersionError", err)
	}
	badVersion.Version = 2 // the layout that still carried the cached distribution
	if err := s.Restore(&badVersion); err == nil {
		t.Fatal("restore accepted a version 2 snapshot")
	}

	// A corrupt device record must fail ReadSnapshot before Restore can
	// half-apply it.
	first := sn.Devices[0].Device
	corrupt := editedSnapshot(t, sn, func(ds *DeviceSnapshot) {
		if ds.Device == first {
			ds.State.Cur = 99
		}
	})
	var buf bytes.Buffer
	if err := corrupt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil {
		t.Fatal("ReadSnapshot accepted a corrupt device record")
	}
}

// TestRestoreRejectsCorruptGeneratorCursor corrupts one device's generator
// state in each of its two forms: a ring state's Tap shifted by one, and a
// compact state's draw count moved past the 334 draws a source stays
// young for. SetState would fold either into range and resume a stream
// no Source produces, so ReadSnapshot and both restore paths must refuse
// the record and name its device, while the untouched snapshot still
// restores to identical bytes.
func TestRestoreRejectsCorruptGeneratorCursor(t *testing.T) {
	const ringDev = 77
	s := newTestStore(t, Config{})
	runScript(t, s, 0, 60)
	churnedDevice(t, s, ringDev, 0, 400)
	sn := s.Snapshot()
	want := encodeSnapshot(t, s)

	for _, tc := range []struct {
		name    string
		dev     uint64
		compact bool // the form the device's generator is in
		edit    func(*rngutil.SourceState)
	}{
		{"a tap cursor one slot off", ringDev, false, func(st *rngutil.SourceState) { st.Tap = (st.Tap + 1) % 607 }},
		{"334 draws since the seed", sn.Devices[1].Device, true, func(st *rngutil.SourceState) { st.Draws = 334 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corrupt := editedSnapshot(t, sn, func(ds *DeviceSnapshot) {
				if ds.Device != tc.dev {
					return
				}
				if compact := ds.Rng.Seed != 0; compact != tc.compact {
					t.Fatalf("device %d: generator in the compact form is %v, want %v", tc.dev, compact, tc.compact)
				}
				tc.edit(&ds.Rng)
			})
			name := fmt.Sprintf("device %d", tc.dev)
			var buf bytes.Buffer
			if err := corrupt.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("ReadSnapshot: got %v, want an error naming %s", err, name)
			}
			for _, restore := range []func(*Store, *Snapshot) error{(*Store).Restore, (*Store).RestoreRange} {
				fresh := newTestStore(t, Config{})
				if err := restore(fresh, corrupt); err == nil || !strings.Contains(err.Error(), name) {
					t.Fatalf("restore: got %v, want an error naming %s", err, name)
				}
				if fresh.Devices() != 0 {
					t.Fatalf("a refused restore left %d devices behind", fresh.Devices())
				}
			}
		})
	}

	good, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestStore(t, Config{})
	if err := restored.Restore(good); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnapshot(t, restored), want) {
		t.Fatal("a valid snapshot no longer restores to identical bytes")
	}
}

// churnedDevice moves dev to another arm set on every slot in [from, to)
// and answers each selection. A policy that changes arm sets draws once
// per slot, so a device driven this way crosses its generator's 334th
// draw, where its state turns from the compact form to the ring form,
// at about slot 334.
func churnedDevice(t *testing.T, s *Store, dev uint64, from, to int) []int {
	t.Helper()
	sets := [][]int{{0, 1, 2}, {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7}}
	var out []int
	for slot := from; slot < to; slot++ {
		arm, sl, err := s.Select(dev, sets[slot%len(sets)])
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(dev, arm, sl, reward(dev, arm, slot))
		out = append(out, arm)
	}
	return out
}

// TestSnapshotRestoreIsByteIdenticalForYoungDevices is
// TestSnapshotRestoreIsByteIdentical for the generator's two forms: the
// cut catches device 5 in its compact form, before the 334th draw, and the
// rest of the history takes it past that draw into the ring form; device 6
// stays young throughout; device 7 is released and re-acquired before the
// cut and again after it, so it restarts from its root seed on both
// sides. Every selection after the cut and the final snapshot bytes must
// match the uninterrupted store's.
func TestSnapshotRestoreIsByteIdenticalForYoungDevices(t *testing.T) {
	const cut, end = 250, 450
	history := func(s *Store, from, to int) []int {
		var out []int
		for slot := from; slot < to; slot++ {
			out = append(out, churnedDevice(t, s, 5, slot, slot+1)...)
			out = append(out, drive(t, s, []uint64{6}, []int{1, 2, 3}, 1)...)
			if slot%150 == 139 {
				s.Release(7)
			}
			if slot%20 == 0 {
				out = append(out, churnedDevice(t, s, 7, slot/20, slot/20+1)...)
			}
		}
		return out
	}
	form := func(s *Store, dev uint64) (compact bool, draws int) {
		st := deviceState(t, s, dev).Rng
		return st.Seed != 0, st.Draws
	}

	uninterrupted := newTestStore(t, Config{})
	history(uninterrupted, 0, cut)
	interrupted := newTestStore(t, Config{Shards: 2})
	history(interrupted, 0, cut)
	for _, dev := range []uint64{5, 6, 7} {
		if compact, draws := form(interrupted, dev); !compact {
			t.Fatalf("at the cut device %d has left the compact form (%d draws)", dev, draws)
		}
	}
	sn, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, interrupted)))
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestStore(t, Config{Shards: 16})
	if err := restored.Restore(sn); err != nil {
		t.Fatal(err)
	}

	want, got := history(uninterrupted, cut, end), history(restored, cut, end)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-restore selection %d: restored store chose %d, uninterrupted chose %d", i, got[i], want[i])
		}
	}
	if compact, _ := form(restored, 5); compact {
		t.Fatal("device 5 ended the history still in the compact form")
	}
	for _, dev := range []uint64{6, 7} {
		if compact, draws := form(restored, dev); !compact {
			t.Fatalf("device %d ended the history in the ring form (%d draws)", dev, draws)
		}
	}
	if !bytes.Equal(encodeSnapshot(t, restored), encodeSnapshot(t, uninterrupted)) {
		t.Fatal("restored and uninterrupted stores end in different snapshot bytes")
	}
}

// TestSnapshotRestoreMixesGeneratorForms cuts a store whose devices stand
// on both sides of their generators' 334th draw: devices 0 to 3 are past
// it and snapshot their rings, devices 4 to 7 are not and snapshot their
// seeds. Restore builds every record without a ring, so each ring-form
// state is copied into a ring allocated for it. The restored store must
// re-snapshot to the cut's bytes; and after the cut, with device 0
// released and re-joined into its pooled record, ring and all, every
// selection and the final bytes must match the uninterrupted store's.
func TestSnapshotRestoreMixesGeneratorForms(t *testing.T) {
	const old, young, more = 400, 100, 300 // slots before the cut, and after it
	history := func(s *Store, from int) []int {
		var out []int
		for slot := from; slot < from+more; slot++ {
			if slot == from+50 {
				s.Release(0)
			}
			for dev := uint64(0); dev < 8; dev++ {
				out = append(out, churnedDevice(t, s, dev, slot, slot+1)...)
			}
		}
		return out
	}
	build := func(shards int) *Store {
		s := newTestStore(t, Config{Shards: shards})
		for dev := uint64(0); dev < 8; dev++ {
			slots := young
			if dev < 4 {
				slots = old
			}
			churnedDevice(t, s, dev, 0, slots)
		}
		return s
	}

	uninterrupted, interrupted := build(1), build(2)
	for dev := uint64(0); dev < 8; dev++ {
		if compact := deviceState(t, interrupted, dev).Rng.Seed != 0; compact != (dev >= 4) {
			t.Fatalf("at the cut device %d is compact=%v", dev, compact)
		}
	}
	mid := encodeSnapshot(t, interrupted)
	sn, err := ReadSnapshot(bytes.NewReader(mid))
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestStore(t, Config{Shards: 16})
	if err := restored.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnapshot(t, restored), mid) {
		t.Fatal("the restored store re-snapshots to other bytes than the cut's")
	}

	want, got := history(uninterrupted, young), history(restored, young)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-restore selection %d: restored store chose %d, uninterrupted chose %d", i, got[i], want[i])
		}
	}
	for dev := uint64(4); dev < 8; dev++ {
		if deviceState(t, restored, dev).Rng.Seed != 0 {
			t.Fatalf("device %d ended the history still in the compact form", dev)
		}
	}
	if !bytes.Equal(encodeSnapshot(t, restored), encodeSnapshot(t, uninterrupted)) {
		t.Fatal("restored and uninterrupted stores end in different snapshot bytes")
	}
}

// TestRestoreRejectsOutOfBoundsRecords restores records that validate on
// their own but break a bound of the receiving store: a switch-back
// window longer than the policy's SwitchBackWindow, and an arm set larger
// than MaxArms, which Select would refuse for the device's own arms. Both
// restore paths must refuse the snapshot, name the device, and leave the
// receiving store's sessions as they were; the unedited snapshot still
// restores to identical bytes.
func TestRestoreRejectsOutOfBoundsRecords(t *testing.T) {
	const wideDev = 77
	s := newTestStore(t, Config{})
	runScript(t, s, 0, 60)
	drive(t, s, []uint64{wideDev}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 30)
	sn := s.Snapshot()
	cases := []struct {
		name    string
		maxArms int
		dev     uint64
		edit    func(*DeviceSnapshot)
	}{
		{"a 43-gain window", 0, 8, func(ds *DeviceSnapshot) { ds.State.Window = make([]float64, 43) }},
		{"a 9-gain previous window", 0, 3, func(ds *DeviceSnapshot) { ds.State.PrevWindow = make([]float64, 9) }},
		{"10 arms in a MaxArms 4 store", 4, wideDev, func(*DeviceSnapshot) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := editedSnapshot(t, sn, func(ds *DeviceSnapshot) {
				if ds.Device == tc.dev {
					tc.edit(ds)
				}
			})
			name := fmt.Sprintf("device %d", tc.dev)
			for _, restore := range []func(*Store, *Snapshot) error{(*Store).Restore, (*Store).RestoreRange} {
				dst := newTestStore(t, Config{MaxArms: tc.maxArms})
				drive(t, dst, []uint64{500, 8}, []int{1, 2}, 20)
				before := encodeSnapshot(t, dst)
				if err := restore(dst, bad); err == nil || !strings.Contains(err.Error(), name) {
					t.Fatalf("restore: got %v, want an error naming %s", err, name)
				}
				if !bytes.Equal(encodeSnapshot(t, dst), before) {
					t.Fatal("a refused restore changed the receiving store")
				}
			}
		})
	}

	dst := newTestStore(t, Config{})
	if err := dst.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnapshot(t, dst), encodeSnapshot(t, s)) {
		t.Fatal("a valid snapshot no longer restores to identical bytes")
	}
}

// deviceState returns the exported state of one device of s.
func deviceState(t *testing.T, s *Store, dev uint64) *DeviceSnapshot {
	t.Helper()
	for _, rec := range s.Snapshot().Devices {
		if rec.Device == dev {
			var ds DeviceSnapshot
			if err := rec.Decode(&ds); err != nil {
				t.Fatal(err)
			}
			return &ds
		}
	}
	t.Fatalf("device %d not in the snapshot", dev)
	return nil
}

// editedSnapshot returns a copy of sn whose every record has been decoded,
// passed to edit and encoded again.
func editedSnapshot(t *testing.T, sn *Snapshot, edit func(*DeviceSnapshot)) *Snapshot {
	t.Helper()
	out := *sn
	out.Devices = make([]DeviceRecord, len(sn.Devices))
	for i, rec := range sn.Devices {
		var ds DeviceSnapshot
		if err := rec.Decode(&ds); err != nil {
			t.Fatal(err)
		}
		edit(&ds)
		out.Devices[i] = ds.Record()
	}
	return &out
}

// TestRestoreKeepsUniformPlaceholder restores a snapshot cut while an arm
// set change's uniform placeholder is in force: the device has just lost a
// weak arm mid-block, so until its next block start it reads its
// distribution as uniform. It then loses the arm it really plays with
// probability ≥ 0.75. Judged against the placeholder's 1/2 that is no
// high-probability loss, so neither the uninterrupted store nor the
// restored one resets, and both go on identically. A restore that dropped
// the placeholder would judge the arm by its weights and reset, which the
// last part shows by restoring the snapshot with the placeholder cleared.
func TestRestoreKeepsUniformPlaceholder(t *testing.T) {
	const dev = 5
	gain := func(arm int) float64 {
		if arm == 3 {
			return 0.95
		}
		return 0.05
	}
	step := func(s *Store, arms []int) int {
		t.Helper()
		arm, slot, err := s.Select(dev, arms)
		if err != nil {
			t.Fatal(err)
		}
		s.Feedback(dev, arm, slot, gain(arm))
		return arm
	}
	trueProb := func(st *DeviceSnapshot, arm int) float64 {
		ps := &st.State
		for li, id := range ps.Available {
			if id == arm {
				g, k := core.DefaultConfig().Gamma(ps.BlockIdx), float64(len(ps.Available))
				return (1-g)*math.Exp(ps.LogW[li]-ps.Shift)/ps.SumW + g/k
			}
		}
		return 0
	}

	live := newTestStore(t, Config{})
	ready := false
	for i := 0; i < 5000 && !ready; i++ {
		step(live, []int{1, 2, 3})
		st := deviceState(t, live, dev)
		ps := &st.State
		ready = !ps.NeedBlock && ps.Available[ps.Cur] == 3 && ps.BlockLen-ps.SlotIn >= 2 && trueProb(st, 3) >= 0.75
	}
	if !ready {
		t.Fatal("the device never settled into a long block on its dominant arm")
	}
	if arm := step(live, []int{2, 3}); arm != 3 {
		t.Fatalf("losing a weak arm moved the running block to arm %d", arm)
	}
	cut := deviceState(t, live, dev)
	if !cut.State.UniformProbs {
		t.Fatal("the snapshot does not carry the uniform placeholder")
	}
	if p := trueProb(cut, 3); p < 0.75 {
		t.Fatalf("arm 3 has probability %v at the cut, want ≥ 0.75", p)
	}
	sn, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, live)))
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestStore(t, Config{Shards: 4})
	if err := restored.Restore(sn); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 30; i++ {
		if got, want := step(restored, []int{2}), step(live, []int{2}); got != want {
			t.Fatalf("slot %d after the cut: restored store chose %d, uninterrupted %d", i, got, want)
		}
	}
	if got := deviceState(t, live, dev).State.Resets; got != cut.State.Resets {
		t.Fatalf("uninterrupted store reset on losing arm 3 (%d resets, %d at the cut)", got, cut.State.Resets)
	}
	if !bytes.Equal(encodeSnapshot(t, restored), encodeSnapshot(t, live)) {
		t.Fatal("restored and uninterrupted stores end in different states")
	}

	sn = editedSnapshot(t, sn, func(ds *DeviceSnapshot) { ds.State.UniformProbs = false })
	wrong := newTestStore(t, Config{})
	if err := wrong.Restore(sn); err != nil {
		t.Fatal(err)
	}
	step(wrong, []int{2})
	if got := deviceState(t, wrong, dev).State.Resets; got != cut.State.Resets+1 {
		t.Fatalf("without the placeholder, losing arm 3 gave %d resets, want %d", got, cut.State.Resets+1)
	}
}

// churnedStore returns a store of n devices, each selected and answered
// over rounds rounds while it cycles through arm sets of 3 to 8 arms, so
// the records differ in arm count and window fill.
func churnedStore(t *testing.T, cfg Config, n, rounds int) *Store {
	t.Helper()
	s := newTestStore(t, cfg)
	sets := [][]int{{0, 1, 2}, {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7}}
	for r := 0; r < rounds; r++ {
		for d := 0; d < n; d++ {
			dev := uint64(d)
			arm, sl, err := s.Select(dev, sets[(r/3+d)%len(sets)])
			if err != nil {
				t.Fatal(err)
			}
			s.Feedback(dev, arm, sl, reward(dev, arm, r))
		}
	}
	return s
}

// TestSnapshotAllocatesWhatItKeeps pins the snapshot's sizing: on a
// quiescent store, full and ranged snapshots index exactly as many records
// as they have room for, and what a snapshot keeps alive after a
// collection exceeds its record bytes by at most 32 B per device — the
// 24 B index entry plus each shard's share of its storage's allocation
// rounding, with 1,024 devices a shard.
func TestSnapshotAllocatesWhatItKeeps(t *testing.T) {
	s := churnedStore(t, Config{Shards: 2}, 2048, 6)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	sn := s.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	kept := int64(ms.HeapAlloc) - int64(before)
	runtime.KeepAlive(sn)
	if len(sn.Devices) != 2048 || cap(sn.Devices) != len(sn.Devices) {
		t.Fatalf("Snapshot: len %d cap %d, want both 2048", len(sn.Devices), cap(sn.Devices))
	}
	records := int64(0)
	for _, rec := range sn.Devices {
		records += int64(len(rec.Record))
	}
	extra := kept - records
	t.Logf("%d B of records, %d B kept: %.1f B per device over", records, kept, float64(extra)/float64(len(sn.Devices)))
	if extra > 32*int64(len(sn.Devices)) {
		t.Fatalf("a snapshot of %d B of records keeps %d B, %d B over: more than 32 B per device", records, kept, extra)
	}

	lo, hi := uint64(1)<<62, uint64(3)<<62
	want := 0
	for d := uint64(0); d < 2048; d++ {
		if k := RouteKey(d); lo <= k && k <= hi {
			want++
		}
	}
	sr := s.SnapshotRange(lo, hi)
	if len(sr.Devices) != want || cap(sr.Devices) != len(sr.Devices) {
		t.Fatalf("SnapshotRange: len %d cap %d, want both %d", len(sr.Devices), cap(sr.Devices), want)
	}
}

// TestSnapshotRecordAppendsStayInTheirRecord decodes each record of a
// snapshot and appends to the decoded State.LogW, State.X and
// State.Window. The decoded form must own its storage: after the appends,
// every record of the snapshot still holds the bytes it had, and encodes
// the same stream.
func TestSnapshotRecordAppendsStayInTheirRecord(t *testing.T) {
	s := churnedStore(t, Config{Shards: 1}, 12, 13)
	sn := s.Snapshot()
	var want bytes.Buffer
	if err := sn.Encode(&want); err != nil {
		t.Fatal(err)
	}
	for _, rec := range sn.Devices {
		var ds DeviceSnapshot
		if err := rec.Decode(&ds); err != nil {
			t.Fatal(err)
		}
		st := &ds.State
		st.LogW = append(st.LogW, -1, -2)
		st.X = append(st.X, -1, -2)
		st.Window = append(st.Window, -1, -2)
		if ds.Record() == rec {
			t.Fatalf("device %d: appended fields did not reach its re-encoding", rec.Device)
		}
	}
	var got bytes.Buffer
	if err := sn.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("editing decoded records changed the snapshot they came from")
	}
}
