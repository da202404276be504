package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/serve"
)

// fuzzConn replays a fixed byte stream as a net.Conn: reads come from
// the fuzz input, writes vanish, deadlines are accepted and ignored —
// the same trick the serve layer's fuzz target uses to drive a full
// connection loop without sockets.
type fuzzConn struct {
	r io.Reader
}

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

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
	tab, err := NewTable(2, []PeerInfo{
		{ID: "fz", Addr: "fz:1", Control: "fz:2"},
		{ID: "other", Addr: "other:1", Control: "other:2"},
	})
	if err != nil {
		tb.Fatal(err)
	}
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
		store, err := serve.NewStore(serve.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(store, PeerOptions{
			ID:           "fz",
			FrameTimeout: -1,
			// A fuzzed cut leaves a drain pointing at a garbage address;
			// the resolver must fail fast, not retry for real-world
			// intervals.
			ResolveAttempts: 1,
			ResolveDelay:    time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.InstallTable(fuzzPeerTable(t)); err != nil {
			t.Fatal(err)
		}
		_ = p.serveControl(&fuzzConn{r: bytes.NewReader(data)})
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

// TestWriteFuzzFleetWireCorpus regenerates the checked-in seed corpora
// under testdata/fuzz/FuzzFleetWire and testdata/fuzz/FuzzFleetCodec when
// UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzFleetWireCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate the seed corpora")
	}
	for target, seeds := range map[string][][]byte{
		"FuzzFleetWire":  fuzzFleetSeeds(t),
		"FuzzFleetCodec": fuzzCodecSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
