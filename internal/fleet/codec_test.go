package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
	"smartexp3/internal/serve"
)

// codecTable is a two-peer table with every field non-zero.
func codecTable() *Table {
	return &Table{Epoch: 7, StripeBits: 6, Peers: []PeerInfo{
		{ID: "a", Addr: "127.0.0.1:7001", Control: "127.0.0.1:7101"},
		{ID: "b", Addr: "127.0.0.1:7002", Control: "127.0.0.1:7102"},
	}}
}

// codecSamples is one representative of every message, with the optional
// parts present and absent and extreme values. The snapshots are opaque
// to the codec, so plain bytes stand in for them.
func codecSamples() []*fleetEnvelope {
	snap := []byte("v4 snapshot bytes \x00\xff")
	return []*fleetEnvelope{
		{TableGet: &tableGetMsg{}},
		{TableRes: &tableResMsg{}}, // no table
		{TableRes: &tableResMsg{Table: codecTable()}},
		{TableRes: &tableResMsg{Table: &Table{Epoch: math.MaxUint64, StripeBits: 255}}}, // empty roster
		{Cut: &cutMsg{Stripe: 3, Lo: 1 << 60, Hi: 1<<61 - 1, To: "b:1", ToControl: "b:2", NewEpoch: 8}},
		{Cut: &cutMsg{Stripe: math.MinInt, Lo: 0, Hi: math.MaxUint64, NewEpoch: math.MaxUint64}},
		{State: &stateMsg{Stripe: 3, Devices: 12, Snap: snap}},
		{State: &stateMsg{Stripe: -1, Err: "not the stripe's owner"}}, // no snapshot
		{Offer: &offerMsg{Stripe: 3, Lo: 0, Hi: math.MaxUint64, NewEpoch: 8, Snap: snap}},
		{Offer: &offerMsg{Stripe: math.MaxInt}}, // no snapshot
		{OfferAck: &offerAckMsg{Stripe: 3}},
		{OfferAck: &offerAckMsg{Stripe: 3, Err: "device 9 outside the offered range"}},
		{Commit: &commitMsg{Table: codecTable()}},
		{Commit: &commitMsg{}}, // no table
		{Abort: &abortMsg{}},
		{Checkpoint: &checkpointMsg{}},
		{Done: &doneMsg{}},
		{Done: &doneMsg{Err: "peer has no snapshot path"}},
	}
}

// snapLen is the length of env's snapshot tail, which any prefix may cut.
func snapLen(env *fleetEnvelope) int {
	switch {
	case env.State != nil:
		return len(env.State.Snap)
	case env.Offer != nil:
		return len(env.Offer.Snap)
	}
	return 0
}

// TestFleetCodecRoundTrip pins the codec's contract on every message,
// a multi-megabyte snapshot included: the payload decodes to the value
// encoded, re-encoding it reproduces the payload, nothing decoded aliases
// the payload (the coordinator holds a stripe's snapshot across further
// reads), and every prefix that cuts into the fixed fields is refused.
func TestFleetCodecRoundTrip(t *testing.T) {
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i * 131)
	}
	samples := append(codecSamples(),
		&fleetEnvelope{State: &stateMsg{Stripe: 1, Devices: 1 << 20, Snap: big}},
		&fleetEnvelope{Offer: &offerMsg{Stripe: 1, Hi: 1 << 58, NewEpoch: 2, Snap: big}})
	for i, want := range samples {
		p := want.appendTo(nil)
		got, err := decodeEnvelope(p)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sample %d: decoded %+v, want %+v", i, got, want)
		}
		saved := bytes.Clone(p)
		for j := range p {
			p[j] = 0xa5 // a reused frame buffer, overwritten by the next read
		}
		if q := got.appendTo(nil); !bytes.Equal(q, saved) {
			t.Fatalf("sample %d: the decoded message changed with the payload buffer, or re-encodes differently", i)
		}
		frametest.RefusesPrefixes(t, fmt.Sprintf("sample %d", i), saved[:len(saved)-snapLen(want)], func(q []byte) error {
			_, err := decodeEnvelope(q)
			return err
		})
	}
}

// TestFleetCodecCarriesEveryField walks every message of the envelope —
// and through them Table and PeerInfo — by reflection. Each message must
// come back as itself, and each leaf field, set alone, must survive the
// codec; a field added to any of these types can never silently drop off
// the wire.
func TestFleetCodecCarriesEveryField(t *testing.T) {
	envType := reflect.TypeFor[fleetEnvelope]()
	for i := 0; i < envType.NumField(); i++ {
		var env fleetEnvelope
		reflect.ValueOf(&env).Elem().Field(i).Set(reflect.New(envType.Field(i).Type.Elem()))
		if got, err := decodeEnvelope(env.appendTo(nil)); err != nil || !reflect.DeepEqual(got, &env) {
			t.Errorf("%s decoded as %+v (%v)", envType.Field(i).Name, got, err)
		}
	}
	scalars := frametest.Scalars{reflect.Int: -7, reflect.Uint8: 7, reflect.Uint64: 7, reflect.String: "x"}
	leaves := frametest.CarriesEveryField(t, "", scalars, nil, func(env *fleetEnvelope) (*fleetEnvelope, error) {
		return decodeEnvelope(env.appendTo(nil))
	})
	// A floor on the walk itself, so a broken walker cannot pass vacuously.
	if leaves < 28 {
		t.Fatalf("walked only %d leaves", leaves)
	}
}

// TestPeerRejectsVersionMismatch greets a peer's control listener with
// the fleet protocol's previous and next versions: each hello is refused
// as a handshake failure naming both versions.
func TestPeerRejectsVersionMismatch(t *testing.T) {
	p := startTestPeer(t, "a", serve.Config{}, PeerOptions{})
	for _, version := range []int{fleetProtocolVersion - 1, fleetProtocolVersion + 1} {
		conn, err := net.DialTimeout("tcp", p.info.Control, frame.DialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		fc := frame.NewConn(conn, 0, 10*time.Second, true)
		ack, err := fc.Greet(frame.Hello{Proto: hello.Proto, Version: version})
		conn.Close()
		if !errors.Is(err, frame.ErrHandshake) || ack.Err == "" {
			t.Fatalf("v%d: want a version refusal, got %+v, %v", version, ack, err)
		}
		for _, v := range []int{version, fleetProtocolVersion} {
			if name := fmt.Sprintf("fleet v%d", v); !strings.Contains(err.Error(), name) {
				t.Fatalf("v%d refusal does not name %s: %v", version, name, err)
			}
		}
	}
}

// fuzzCodecSeeds is the checked-in seed corpus for FuzzFleetCodec: every
// codecSamples payload, and the malformed shapes the decoder must refuse —
// unknown tags, an overlong varint, a roster count larger than the bytes
// left, a bad presence byte, stripe bits past a uint8, trailing bytes and
// truncation.
func fuzzCodecSeeds() [][]byte {
	var seeds [][]byte
	for _, env := range codecSamples() {
		seeds = append(seeds, env.appendTo(nil))
	}
	return append(seeds,
		[]byte{0},                              // no message
		[]byte{tagDone + 1, 0},                 // the first tag past the set
		[]byte{tagOfferAck, 0x80, 0, 0},        // overlong varint
		[]byte{tagCommit, 1, 1, 6, 0xff, 0x01}, // roster count beyond the payload
		[]byte{tagTableRes, 2},                 // presence byte 2
		[]byte{tagCommit, 1, 1, 0x80, 0x02, 0}, // stripe bits 256
		[]byte{tagAbort, 0},                    // trailing byte
		[]byte{tagCut, 6, 1, 2, 3},             // truncated
	)
}

// FuzzFleetCodec throws arbitrary payloads at the fleet decoder. The
// invariants: no panic; every payload that decodes re-encodes to exactly
// the same bytes (the layout is canonical, so nothing is silently
// normalized); and no decoded list is longer than the payload, so a
// hostile count can never size storage beyond the bytes that arrived.
func FuzzFleetCodec(f *testing.F) {
	for _, seed := range fuzzCodecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		env, err := decodeEnvelope(p)
		frametest.ListsFit(t, env, p)
		if err != nil {
			return
		}
		if got := env.appendTo(nil); !bytes.Equal(got, p) {
			t.Fatalf("payload %x decodes (%+v) but re-encodes as %x", p, env, got)
		}
	})
}
