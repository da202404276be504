package fleet

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
	"smartexp3/internal/serve"
)

// encodeFleetFrames renders a control request sequence exactly as a real
// coordinator would: the hello h unless nil, then one frame per envelope.
func encodeFleetFrames(tb testing.TB, h *frame.Hello, envs ...*fleetEnvelope) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf)
	if h != nil {
		if err := fw.WriteFrame(h.Payload()); err != nil {
			tb.Fatal(err)
		}
	}
	for _, env := range envs {
		if err := fw.WriteFrame(env.appendTo(nil)); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzFleetSeeds is the checked-in seed corpus for FuzzFleetWire: a full
// well-formed migration session, each frame class alone, refusals the
// handlers must answer rather than die on, and framing corruption.
func fuzzFleetSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	h := hello
	h.Info = "fuzz"
	tab := fuzzPeerTable(tb)
	tab2 := tab.Clone()
	tab2.Epoch = 2
	// A stripe the fuzz peer owns, so the cut is accepted and the
	// session walks the full drain path.
	ownStripe := -1
	for s := 0; s < tab.Stripes(); s++ {
		if tab.Peers[tab.OwnerOf(s)].ID == "fz" {
			ownStripe = s
			break
		}
	}
	lo, hi := tab.StripeRange(ownStripe)
	// An empty range cut of a real store stamps version/algorithm/seed
	// the way a genuine migration payload would.
	seedStore, err := serve.NewStore(serve.Config{Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	var snap bytes.Buffer
	if err := seedStore.SnapshotRange(1, 0).Encode(&snap); err != nil {
		tb.Fatal(err)
	}
	// A snapshot header stamped with a version no peer speaks.
	var future bytes.Buffer
	if err := (&serve.Snapshot{Version: 99}).Encode(&future); err != nil {
		tb.Fatal(err)
	}
	// The drain's resolver target must refuse connections instantly, not
	// hang a fuzz iteration in name resolution.
	cut := &fleetEnvelope{Cut: &cutMsg{Stripe: ownStripe, Lo: lo, Hi: hi, To: "127.0.0.1:1", ToControl: "127.0.0.1:1", NewEpoch: 2}}
	seeds := [][]byte{
		encodeFleetFrames(tb, &h),
		encodeFleetFrames(tb, &h, &fleetEnvelope{TableGet: &tableGetMsg{}}),
		// The full migration session: cut an owned stripe, stage a
		// stripe, commit the bumped table, checkpoint, fetch the table.
		encodeFleetFrames(tb, &h,
			cut,
			&fleetEnvelope{Offer: &offerMsg{Stripe: 0, Lo: 0, Hi: ^uint64(0) >> 2, NewEpoch: 2, Snap: snap.Bytes()}},
			&fleetEnvelope{Commit: &commitMsg{Table: tab2}},
			&fleetEnvelope{Checkpoint: &checkpointMsg{}},
			&fleetEnvelope{TableGet: &tableGetMsg{}}),
		// Cut then abort: the drain must lift.
		encodeFleetFrames(tb, &h, cut, &fleetEnvelope{Abort: &abortMsg{}}),
		// Refusals a conforming codec can still deliver.
		encodeFleetFrames(tb, &frame.Hello{Proto: "fleet", Version: 99}),
		encodeFleetFrames(tb, nil, &fleetEnvelope{TableGet: &tableGetMsg{}}), // request before hello
		encodeFleetFrames(tb, &h, &fleetEnvelope{}),                          // no message: tag 0, unknown
		encodeFleetFrames(tb, &h, &fleetEnvelope{Cut: &cutMsg{Stripe: 999, NewEpoch: 2}}),
		encodeFleetFrames(tb, &h, &fleetEnvelope{Cut: &cutMsg{Stripe: ownStripe, Lo: lo + 1, Hi: hi, NewEpoch: 2}}),
		encodeFleetFrames(tb, &h, &fleetEnvelope{Offer: &offerMsg{Stripe: 0, Snap: future.Bytes()}}),
		encodeFleetFrames(tb, &h, &fleetEnvelope{Offer: &offerMsg{Stripe: 0}}), // no snapshot
		encodeFleetFrames(tb, &h, &fleetEnvelope{Commit: &commitMsg{}}),        // no table
		encodeFleetFrames(tb, &h, &fleetEnvelope{Commit: &commitMsg{Table: &Table{Epoch: 0}}}),
		encodeFleetFrames(tb, &h, &fleetEnvelope{Done: &doneMsg{}}), // a reply the peer must refuse
		// Framing corruptions.
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0},
	}
	trunc := encodeFleetFrames(tb, &h, cut)
	seeds = append(seeds, trunc[:len(trunc)-4])
	return seeds
}

// fuzzPeerTable is the table every FuzzFleetWire iteration starts from.
func fuzzPeerTable(tb testing.TB) *Table {
	tb.Helper()
	tab, err := NewTable(2, []PeerInfo{
		{ID: "fz", Addr: "fz:1", Control: "fz:2"},
		{ID: "other", Addr: "other:1", Control: "other:2"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// fuzzPeer is the peer a FuzzFleetWire iteration drives: a fresh store
// under fuzzPeerTable, as peer "fz", checkpointing into a temporary
// directory so a Checkpoint reaches Store.SaveFile.
func fuzzPeer(tb testing.TB) (*serve.Store, *Peer) {
	tb.Helper()
	store, err := serve.NewStore(serve.Config{Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPeer(store, PeerOptions{
		ID:           "fz",
		FrameTimeout: -1,
		SnapshotPath: filepath.Join(tb.TempDir(), "fz.snap"),
		// A fuzzed cut leaves a drain pointing at a garbage address;
		// the resolver must fail fast, not retry for real-world
		// intervals.
		ResolveAttempts: 1,
		ResolveDelay:    time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.InstallTable(fuzzPeerTable(tb)); err != nil {
		tb.Fatal(err)
	}
	return store, p
}

// FuzzFleetWire throws arbitrary byte streams at a live control
// connection loop. The invariants: no panic, the loop terminates, any
// drains the stream left behind resolve when the connection dies (the
// resolver's abort path — the gaining address is garbage), and the peer
// stays coherent: its installed table still validates and its store
// still snapshots.
func FuzzFleetWire(f *testing.F) {
	for _, seed := range fuzzFleetSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh peer per iteration: fuzzed commits install arbitrary
		// valid tables, and epochs only move forward, so reuse would let
		// one iteration shadow the next's fixture.
		store, p := fuzzPeer(t)
		_ = p.serveControl(&frametest.Conn{R: bytes.NewReader(data)})
		if tab := p.Table(); tab != nil {
			if err := tab.Validate(); err != nil {
				t.Fatalf("fuzzed connection installed an invalid table: %v", err)
			}
		}
		if sn := store.SnapshotRange(0, ^uint64(0)); sn == nil {
			t.Fatal("store cannot snapshot after fuzzed connection")
		}
	})
}

// TestFuzzFleetWireSessionSeedMigrates replays the corpus's full
// migration session (seed 2) against a peer and reads its replies: the
// cut drains the stripe, the offer is staged, the commit installs the
// bumped table, the checkpoint saves a file a fresh store loads, and the
// closing table fetch reads epoch 2. A snapshot or
// table change that makes the peer refuse the seed fails here rather
// than quietly leaving the fuzz target without a session that stages a
// stripe.
func TestFuzzFleetWireSessionSeedMigrates(t *testing.T) {
	_, p := fuzzPeer(t)
	var out bytes.Buffer
	if err := p.serveControl(&frametest.Conn{R: bytes.NewReader(fuzzFleetSeeds(t)[2]), W: &out}); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewReader(&out)
	if _, err := fr.ReadFrame(); err != nil { // the hello ack
		t.Fatal(err)
	}
	var replies []*fleetEnvelope
	for {
		b, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		env, err := decodeEnvelope(b)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, env)
	}
	if len(replies) != 5 {
		t.Fatalf("the session drew %d replies, want 5 (cut, offer, commit, checkpoint, table)", len(replies))
	}
	if st := replies[0].State; st == nil || st.Err != "" {
		t.Fatalf("cut answered %+v, want a state", st)
	}
	if ack := replies[1].OfferAck; ack == nil || ack.Err != "" {
		t.Fatalf("offer answered %+v, want an ack", ack)
	}
	if done := replies[2].Done; done == nil || done.Err != "" {
		t.Fatalf("commit answered %+v, want done", done)
	}
	if done := replies[3].Done; done == nil || done.Err != "" {
		t.Fatalf("checkpoint answered %+v, want done", done)
	}
	fresh, err := serve.NewStore(serve.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadFile(p.opts.SnapshotPath); err != nil {
		t.Fatalf("the checkpoint does not load into a fresh store: %v", err)
	}
	if res := replies[4].TableRes; res == nil || res.Table == nil || res.Table.Epoch != 2 {
		t.Fatalf("the closing table fetch answered %+v, want epoch 2", res)
	}
}

// TestWriteFuzzFleetWireCorpus regenerates the checked-in seed corpora
// under testdata/fuzz/FuzzFleetWire and testdata/fuzz/FuzzFleetCodec when
// UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzFleetWireCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzFleetWire", fuzzFleetSeeds(t))
	frametest.WriteCorpus(t, "FuzzFleetCodec", fuzzCodecSeeds())
}
