package serve

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreConcurrentSoak is the race-detector soak: many goroutines
// hammer Select/Feedback across deliberately overlapping device ids while
// another goroutine snapshots and one churns devices through the pools.
// Under -race (CI runs the package that way) this is the proof that the
// shard locking is complete; without -race it still checks the store's
// invariants under contention.
func TestStoreConcurrentSoak(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	arms := []int{1, 2, 3, 4, 5}
	const (
		clients = 8
		slots   = 400
		overlap = 16 // ids shared by all clients: worst-case lock contention
	)
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for slot := 0; slot < slots; slot++ {
				dev := uint64(slot % overlap) // all clients fight over these
				if slot%3 == g%3 {
					dev = uint64(1000 + g) // plus a private id each
				}
				arm, sl, err := s.Select(dev, arms)
				if err != nil {
					t.Error(err)
					return
				}
				ok := false
				for _, a := range arms {
					if a == arm {
						ok = true
					}
				}
				if !ok {
					wrong.Add(1)
				}
				// Overlapping ids race their feedback on purpose: another
				// client may have re-selected in between, which the store
				// must absorb as a dropped report, never a corruption.
				s.Feedback(dev, arm, sl, reward(dev, arm, slot))
				if slot%97 == 0 && dev >= 1000 {
					s.Release(dev)
				}
			}
		}(g)
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 50; i++ {
			sn := s.Snapshot()
			var buf bytes.Buffer
			if err := sn.Encode(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := ReadSnapshot(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-snapDone
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d selections returned arms outside the requested set", w)
	}
	// Post-soak sanity: the store still serves deterministically.
	a := drive(t, s, []uint64{1 << 50}, arms, 20)
	b := drive(t, newTestStore(t, Config{Shards: 4}), []uint64{1 << 50}, arms, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d: post-soak store chose %d, fresh store %d — soak leaked state across devices", i, a[i], b[i])
		}
	}
}

// TestSnapshotCapUnderChurnSoak snapshots a store while goroutines join
// and release devices. Snapshot allocates Devices at a first count and
// grows it only by what a shard needs, so the record array can overshoot
// the captured count only by the devices that left during the sweep. Here
// at most clients*live devices come and go, fewer than any shard holds of
// the resident ones, so cap(Devices) must stay within one shard's device
// count of len(Devices); append's growth rule alone would overshoot by a
// quarter of the store.
func TestSnapshotCapUnderChurnSoak(t *testing.T) {
	const (
		resident = 512
		clients  = 4
		live     = 4 // joined-but-not-released devices per client at most
		joins    = 600
	)
	s := churnedStore(t, Config{Shards: 4}, resident, 1)
	shardMin := resident
	for si := range s.shards {
		shardMin = min(shardMin, len(s.shards[si].devices))
	}
	arms := []int{1, 2, 3}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(1<<20 + g*joins)
			for i := 0; i < joins; i++ {
				dev := base + uint64(i)
				arm, sl, err := s.Select(dev, arms)
				if err != nil {
					t.Error(err)
					return
				}
				s.Feedback(dev, arm, sl, reward(dev, arm, i))
				if i >= live-1 {
					s.Release(dev - (live - 1))
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(stop) }()
	for snaps := 0; ; snaps++ {
		select {
		case <-stop:
			if snaps == 0 {
				t.Fatal("the churn finished before one snapshot ran")
			}
			return
		default:
		}
		sn := s.Snapshot()
		if n := len(sn.Devices); n < resident || cap(sn.Devices)-n > shardMin {
			t.Fatalf("snapshot %d: len %d cap %d, want len ≥ %d and cap within %d of it", snaps, n, cap(sn.Devices), resident, shardMin)
		}
	}
}
