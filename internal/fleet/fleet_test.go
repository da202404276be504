package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/chaos"
	"smartexp3/internal/serve"
)

// testPeer is one in-process fleet member: a store, its serve data
// server, and its fleet control server, with explicit teardown so leak
// checks can run before the test ends.
type testPeer struct {
	info  PeerInfo
	store *serve.Store
	peer  *Peer
	srv   *serve.Server

	dataLn, ctrlLn net.Listener
	dataDone       chan struct{}
	ctrlDone       chan struct{}
	closed         bool
}

func startTestPeer(t *testing.T, id string, cfg serve.Config, popts PeerOptions) *testPeer {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	store, err := serve.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	popts.ID = id
	if popts.FrameTimeout == 0 {
		popts.FrameTimeout = 30 * time.Second
	}
	if popts.ResolveDelay == 0 {
		popts.ResolveDelay = 50 * time.Millisecond
	}
	p, err := NewPeer(store, popts)
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &testPeer{
		info:     PeerInfo{ID: id, Addr: dataLn.Addr().String(), Control: ctrlLn.Addr().String()},
		store:    store,
		peer:     p,
		srv:      serve.NewServer(store, serve.ServerOptions{FrameTimeout: 30 * time.Second}),
		dataLn:   dataLn,
		ctrlLn:   ctrlLn,
		dataDone: make(chan struct{}),
		ctrlDone: make(chan struct{}),
	}
	go func() { defer close(tp.dataDone); _ = tp.srv.Serve(dataLn) }()
	go func() { defer close(tp.ctrlDone); _ = tp.peer.ServeControl(ctrlLn) }()
	t.Cleanup(func() { tp.close() })
	return tp
}

func (tp *testPeer) close() {
	if tp.closed {
		return
	}
	tp.closed = true
	tp.dataLn.Close()
	tp.ctrlLn.Close()
	tp.srv.Close()
	tp.peer.Close()
	<-tp.dataDone
	<-tp.ctrlDone
}

// learnedBytes encodes a snapshot with Dropped zeroed: migrations and
// resends legitimately drop slot-duplicates (the dedup working), so the
// determinism claim is about the learned state itself.
func learnedBytes(t *testing.T, sn *serve.Snapshot) []byte {
	t.Helper()
	sn.Dropped = 0
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reward is the deterministic environment shared with the clean store.
func reward(device uint64, arm, slot int) float64 {
	return math.Abs(math.Sin(float64(device)*7.3 + float64(arm)*1.7 + float64(slot)*0.13))
}

// waitGoroutines polls until the goroutine count returns to the baseline,
// dumping stacks if it never does.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%d goroutines alive, want %d; stacks:\n%s",
		runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
}

// TestFleetRebalanceAndChaosKillIsDecisionIdentical is the tentpole's
// acceptance property: a workload driven through a fleet — two peers at
// first, a third joining via a live mid-run rebalance, and every
// connection to one peer chaos-killed mid-run — must make byte-for-byte
// the same decisions as the same script against a single in-process
// store, and the peers' merged final snapshot must equal the single
// store's. No goroutine may outlive the session.
func TestFleetRebalanceAndChaosKillIsDecisionIdentical(t *testing.T) {
	const devices = 16
	const slots = 180
	const rebalanceAt = 60
	const killAt = 120
	arms := []int{10, 20, 30}
	for _, seed := range []int64{5, 91} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			a := startTestPeer(t, "a", serve.Config{}, PeerOptions{})
			b := startTestPeer(t, "b", serve.Config{}, PeerOptions{})
			c := startTestPeer(t, "c", serve.Config{}, PeerOptions{})

			// Peer a's data plane goes through a chaos proxy carrying a
			// seeded fault schedule; the table advertises the proxy.
			proxy, err := chaos.NewProxy(a.info.Addr, chaos.Faults{
				Seed:   seed,
				MinGap: 1024, MaxGap: 4096,
				Delay: 3, Corrupt: 2, Cut: 1,
				MaxDelay: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			aInfo := a.info
			aInfo.Addr = proxy.Addr()

			tab, err := NewTable(DefaultStripeBits, []PeerInfo{aInfo, b.info})
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range []*testPeer{a, b} {
				if err := tp.peer.InstallTable(tab); err != nil {
					t.Fatal(err)
				}
			}

			fc, err := NewClient(ClientOptions{
				Table:        tab,
				FrameTimeout: 2 * time.Second,
				BackoffBase:  time.Millisecond,
				BackoffMax:   20 * time.Millisecond,
				MaxAttempts:  20,
			})
			if err != nil {
				t.Fatal(err)
			}

			clean, err := serve.NewStore(serve.Config{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			coord := &Coordinator{Self: "test-coordinator"}
			roster := []PeerInfo{aInfo, b.info, c.info}

			for slot := 0; slot < slots; slot++ {
				if slot == rebalanceAt {
					tab2, err := coord.Rebalance(roster)
					if err != nil {
						t.Fatalf("rebalance: %v", err)
					}
					if tab2.Epoch != tab.Epoch+1 || len(tab2.Peers) != 3 {
						t.Fatalf("rebalance produced epoch %d over %d peers", tab2.Epoch, len(tab2.Peers))
					}
				}
				if slot == killAt {
					proxy.CutAll()
				}
				for dev := uint64(1); dev <= devices; dev++ {
					got, err := fc.Select(dev, arms)
					if err != nil {
						t.Fatalf("slot %d device %d: %v", slot, dev, err)
					}
					want, sl, err := clean.Select(dev, arms)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("slot %d device %d: fleet selected %d, single store %d (after %d redirects)",
							slot, dev, got, want, fc.Redirects())
					}
					r := reward(dev, got, slot)
					if err := fc.Feedback(dev, got, r); err != nil {
						t.Fatal(err)
					}
					clean.Feedback(dev, want, sl, r)
				}
			}
			if err := fc.Flush(); err != nil {
				t.Fatal(err)
			}
			if fc.Redirects() == 0 {
				t.Fatal("the rebalance never redirected a request; the race this test exists for did not happen")
			}
			if got := fc.Table().Epoch; got != tab.Epoch+1 {
				t.Fatalf("client table at epoch %d after the rebalance, want %d", got, tab.Epoch+1)
			}
			if c.store.Devices() == 0 {
				t.Fatal("the joining peer owns no sessions after the rebalance")
			}

			merged, err := MergeSnapshots(a.store.Snapshot(), b.store.Snapshot(), c.store.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(learnedBytes(t, merged), learnedBytes(t, clean.Snapshot())) {
				t.Fatalf("fleet state diverged from the single store after the rebalance and %d redirects", fc.Redirects())
			}

			if err := fc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := proxy.Close(); err != nil {
				t.Fatal(err)
			}
			a.close()
			b.close()
			c.close()
			waitGoroutines(t, baseline)
		})
	}
}

// TestStaleClientFeedbackIsBouncedAndNeverDoubleApplied is the epoch
// race the redirect surface exists for: a client routing with a
// pre-migration table keeps sending selections and feedback to the old
// owner. The old owner must reject both (NotOwner on Select, a Rejected
// bounce for feedback), the client must re-deliver to the new owner, and
// the re-delivered reports must apply exactly once.
func TestStaleClientFeedbackIsBouncedAndNeverDoubleApplied(t *testing.T) {
	const devices = 12
	const slots = 40
	arms := []int{1, 2, 3}
	a := startTestPeer(t, "a", serve.Config{}, PeerOptions{})
	b := startTestPeer(t, "b", serve.Config{}, PeerOptions{})
	c := startTestPeer(t, "c", serve.Config{}, PeerOptions{})

	tab, err := NewTable(DefaultStripeBits, []PeerInfo{a.info, b.info})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.peer.InstallTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := b.peer.InstallTable(tab); err != nil {
		t.Fatal(err)
	}

	fc, err := NewClient(ClientOptions{Table: tab, FrameTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	clean, err := serve.NewStore(serve.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	drive := func(from, to int) {
		t.Helper()
		for slot := from; slot < to; slot++ {
			for dev := uint64(1); dev <= devices; dev++ {
				got, err := fc.Select(dev, arms)
				if err != nil {
					t.Fatalf("slot %d device %d: %v", slot, dev, err)
				}
				want, sl, err := clean.Select(dev, arms)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("slot %d device %d: fleet selected %d, single store %d", slot, dev, got, want)
				}
				r := reward(dev, got, slot)
				if err := fc.Feedback(dev, got, r); err != nil {
					t.Fatal(err)
				}
				clean.Feedback(dev, want, sl, r)
			}
		}
	}

	drive(0, slots/2)
	// Rebalance c in behind the client's back; the client's table stays
	// at epoch 1.
	coord := &Coordinator{Self: "test-coordinator"}
	tab2, err := coord.Rebalance([]PeerInfo{a.info, b.info, c.info})
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Epoch != 2 {
		t.Fatalf("rebalance committed epoch %d, want 2", tab2.Epoch)
	}
	drive(slots/2, slots)

	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	if fc.Redirects() == 0 {
		t.Fatal("stale client was never redirected")
	}
	if got := fc.Table().Epoch; got != 2 {
		t.Fatalf("client healed to epoch %d, want 2", got)
	}
	redirected := a.peer.m.Redirects.Value() + b.peer.m.Redirects.Value()
	if redirected == 0 {
		t.Fatal("no peer counted a redirect; the stale requests never hit an old owner")
	}

	merged, err := MergeSnapshots(a.store.Snapshot(), b.store.Snapshot(), c.store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(learnedBytes(t, merged), learnedBytes(t, clean.Snapshot())) {
		t.Fatal("re-delivered feedback was lost or double-applied: fleet state diverged from the single store")
	}
}

// fakeCoordinator drives the control protocol by hand so tests can die
// at a chosen point in the handoff.
type fakeCoordinator struct {
	t     *testing.T
	conns map[string]*controlConn
}

func newFakeCoordinator(t *testing.T, peers ...PeerInfo) *fakeCoordinator {
	t.Helper()
	fc := &fakeCoordinator{t: t, conns: make(map[string]*controlConn)}
	for _, p := range peers {
		cc, err := dialControl(p, "fake-coordinator", 5*time.Second, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc.conns[p.ID] = cc
	}
	t.Cleanup(fc.close)
	return fc
}

func (fc *fakeCoordinator) close() {
	for id, cc := range fc.conns {
		cc.close()
		delete(fc.conns, id)
	}
}

func (fc *fakeCoordinator) roundTrip(id string, env *fleetEnvelope) *fleetEnvelope {
	fc.t.Helper()
	resp, err := fc.conns[id].roundTrip(env)
	if err != nil {
		fc.t.Fatalf("round trip to %s: %v", id, err)
	}
	return resp
}

// movedStripeAndDevice finds a stripe that moves from old's owner to
// peer gain under tab2, and a device id routed into that stripe.
func movedStripeAndDevice(t *testing.T, tab1, tab2 *Table, gain string) (int, uint64) {
	t.Helper()
	for s := 0; s < tab2.Stripes(); s++ {
		if tab2.Peers[tab2.OwnerOf(s)].ID != gain || tab1.Peers[tab1.OwnerOf(s)].ID == gain {
			continue
		}
		for dev := uint64(1); dev < 100000; dev++ {
			if tab2.StripeOf(serve.RouteKey(dev)) == s {
				return s, dev
			}
		}
	}
	t.Fatalf("no stripe moves to %s between the tables", gain)
	return 0, 0
}

// TestCoordinatorDeathMidHandoff pins the drain resolver's two verdicts.
// Die after Cut but before Commit anywhere: the migration never became
// fact, so the drain aborts and the range stays on the old owner, every
// session intact. Die after committing the gaining peer but before the
// draining peer heard: the migration IS fact, so the drained peer
// resolves by adopting the gaining peer's table and dropping the range —
// one owner per device either way, no device lost.
func TestCoordinatorDeathMidHandoff(t *testing.T) {
	arms := []int{1, 2, 3}
	setup := func(t *testing.T) (a, b *testPeer, tab1, tab2 *Table, stripe int, dev uint64) {
		a = startTestPeer(t, "a", serve.Config{}, PeerOptions{})
		b = startTestPeer(t, "b", serve.Config{}, PeerOptions{})
		var err error
		tab1, err = NewTable(DefaultStripeBits, []PeerInfo{a.info})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.peer.InstallTable(tab1); err != nil {
			t.Fatal(err)
		}
		tab2, err = NewTable(DefaultStripeBits, []PeerInfo{a.info, b.info})
		if err != nil {
			t.Fatal(err)
		}
		tab2.Epoch = 2
		stripe, dev = movedStripeAndDevice(t, tab1, tab2, "b")
		// Seed some learned state for the moving device on a.
		for slot := 0; slot < 10; slot++ {
			arm, sl, err := a.store.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			a.store.Feedback(dev, arm, sl, reward(dev, arm, slot))
		}
		return a, b, tab1, tab2, stripe, dev
	}
	cut := func(t *testing.T, fc *fakeCoordinator, tab2 *Table, stripe int) *stateMsg {
		t.Helper()
		lo, hi := tab2.StripeRange(stripe)
		var to PeerInfo
		for _, p := range tab2.Peers {
			if p.ID == "b" {
				to = p
			}
		}
		resp := fc.roundTrip("a", &fleetEnvelope{Cut: &cutMsg{
			Stripe: stripe, Lo: lo, Hi: hi,
			To: to.Addr, ToControl: to.Control,
			NewEpoch: tab2.Epoch,
		}})
		if resp.State == nil || resp.State.Err != "" {
			t.Fatalf("cut refused: %+v", resp.State)
		}
		return resp.State
	}
	waitResolved := func(t *testing.T, probe func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if probe() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal("drain never resolved")
	}

	t.Run("before any commit: drain aborts, range stays", func(t *testing.T) {
		a, b, _, tab2, stripe, dev := setup(t)
		fc := newFakeCoordinator(t, a.info, b.info)
		state := cut(t, fc, tab2, stripe)
		if state.Devices == 0 {
			t.Fatal("cut snapshot carries no devices; the test device never landed in the stripe")
		}
		// Mid-drain the device is refused with the migration's epoch.
		if _, _, err := a.store.Select(dev, arms); err == nil {
			t.Fatal("draining stripe still answering selects")
		}
		fc.close() // the coordinator dies; nothing was committed
		waitResolved(t, func() bool {
			_, _, err := a.store.Select(dev, arms)
			return err == nil
		})
		if got := a.peer.Epoch(); got != 1 {
			t.Fatalf("aborted drain left peer a at epoch %d, want 1", got)
		}
		if b.store.Devices() != 0 {
			t.Fatalf("peer b holds %d sessions after an aborted handoff", b.store.Devices())
		}
	})

	t.Run("after the gaining peer committed: drain completes", func(t *testing.T) {
		a, b, _, tab2, stripe, dev := setup(t)
		fc := newFakeCoordinator(t, a.info, b.info)
		state := cut(t, fc, tab2, stripe)
		lo, hi := tab2.StripeRange(stripe)
		// Staging vets every record against the store's bounds, the
		// generator state and the switch-back window included, so the
		// commit below cannot half-fail on a corrupt one.
		for _, c := range []struct {
			name string
			edit func(*serve.DeviceSnapshot)
		}{
			{"a corrupt generator state", func(ds *serve.DeviceSnapshot) {
				if ds.Rng.Seed != 0 { // the compact form: replay past the ring's 334 seeding draws
					ds.Rng.Draws = 334
				} else {
					ds.Rng.Tap = (ds.Rng.Tap + 1) % 607
				}
			}},
			{"a 43-gain switch-back window", func(ds *serve.DeviceSnapshot) { ds.State.Window = make([]float64, 43) }},
		} {
			corrupt, err := serve.ReadSnapshot(bytes.NewReader(state.Snap))
			if err != nil {
				t.Fatal(err)
			}
			var ds serve.DeviceSnapshot
			if err := corrupt.Devices[0].Decode(&ds); err != nil {
				t.Fatal(err)
			}
			c.edit(&ds)
			corrupt.Devices[0] = ds.Record()
			var buf bytes.Buffer
			if err := corrupt.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if resp := fc.roundTrip("b", &fleetEnvelope{Offer: &offerMsg{
				Stripe: stripe, Lo: lo, Hi: hi, NewEpoch: tab2.Epoch, Snap: buf.Bytes(),
			}}); resp.OfferAck == nil || !strings.Contains(resp.OfferAck.Err, fmt.Sprintf("device %d", ds.Device)) {
				t.Fatalf("offer with %s: %+v", c.name, resp.OfferAck)
			}
		}
		// A snapshot of another layout version is refused by name.
		var future bytes.Buffer
		if err := (&serve.Snapshot{Version: serve.SnapshotVersion + 1}).Encode(&future); err != nil {
			t.Fatal(err)
		}
		wantErr := fmt.Sprintf("snapshot version %d, want %d", serve.SnapshotVersion+1, serve.SnapshotVersion)
		if resp := fc.roundTrip("b", &fleetEnvelope{Offer: &offerMsg{
			Stripe: stripe, Lo: lo, Hi: hi, NewEpoch: tab2.Epoch, Snap: future.Bytes(),
		}}); resp.OfferAck == nil || !strings.Contains(resp.OfferAck.Err, wantErr) {
			t.Fatalf("offer of a future snapshot version: %+v, want an error naming %q", resp.OfferAck, wantErr)
		}
		if b.store.Devices() != 0 {
			t.Fatalf("refused offers left %d sessions on peer b", b.store.Devices())
		}
		if resp := fc.roundTrip("b", &fleetEnvelope{Offer: &offerMsg{
			Stripe: stripe, Lo: lo, Hi: hi, NewEpoch: tab2.Epoch, Snap: state.Snap,
		}}); resp.OfferAck == nil || resp.OfferAck.Err != "" {
			t.Fatalf("offer refused: %+v", resp.OfferAck)
		}
		if resp := fc.roundTrip("b", &fleetEnvelope{Commit: &commitMsg{Table: tab2}}); resp.Done == nil || resp.Done.Err != "" {
			t.Fatalf("commit on b refused: %+v", resp.Done)
		}
		fc.close() // the coordinator dies before telling a
		waitResolved(t, func() bool { return a.peer.Epoch() == tab2.Epoch })
		var no *serve.NotOwnerError
		if _, _, err := a.store.Select(dev, arms); !errors.As(err, &no) {
			t.Fatalf("old owner still answers for the migrated device (err %v)", err)
		} else if no.Owner != b.info.Addr {
			t.Fatalf("old owner redirects to %q, want %q", no.Owner, b.info.Addr)
		}
		if a.store.Devices() != 0 {
			t.Fatalf("old owner still holds %d sessions after resolving the commit", a.store.Devices())
		}
		// The gaining peer serves the device with its learned state: its
		// next selections match a clean store driven through the same
		// script.
		clean, err := serve.NewStore(serve.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 10; slot++ {
			arm, sl, err := clean.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			clean.Feedback(dev, arm, sl, reward(dev, arm, slot))
		}
		for slot := 10; slot < 30; slot++ {
			got, gsl, err := b.store.Select(dev, arms)
			if err != nil {
				t.Fatalf("gaining peer refuses the migrated device: %v", err)
			}
			want, sl, err := clean.Select(dev, arms)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("slot %d: migrated session selected %d, clean store %d — state did not survive the handoff", slot, got, want)
			}
			r := reward(dev, got, slot)
			b.store.Feedback(dev, got, gsl, r)
			clean.Feedback(dev, want, sl, r)
		}
	})
}
