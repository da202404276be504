package fleet

import "smartexp3/internal/frame"

// The fleet control protocol rides internal/frame, like the cluster and
// serve wires: a frame.Conn per connection, the shared hello exchange
// (each side's Info names it: the coordinator's name in the hello, the
// peer's id in the reply), and one fixed-layout payload per frame
// (codec.go). A payload is a tag byte naming the envelope's one message,
// then that message's fields in declaration order in frame's field
// encodings: ints as zigzag varints, uint64s as uvarints, strings as a
// length and their bytes. A *Table is a presence byte, then its epoch,
// its stripe bits (at most 255) and its roster as a list of (ID, Addr,
// Control) strings. A migrated stripe's snapshot (stateMsg.Snap,
// offerMsg.Snap) is the rest of the payload: its own encoding, carried
// as it is. One synchronous caller drives one connection: a coordinator
// holds one control connection per peer for the lifetime of a rebalance,
// and everything staged over a connection dies with it — which is what
// makes a dead coordinator free (see the package doc's migration
// contract). Like the serve and shardd wires, the control plane trusts
// its network: the names in the hello are informational, not
// authenticated.

// fleetProtocolVersion is bumped whenever the control message set
// changes incompatibly; the handshake refuses mismatches. Version 2 moved
// the handshake to the frame layer's shared hello, added the frame
// header's own checksum, and dropped the unused control ping. Version 3
// carries migrated snapshots as their fixed-layout encoding (serve.Snapshot.Encode)
// instead of gob-encoded structs, and counts a cut's devices in stateMsg.
// Version 4 replaces the gob envelopes with the fixed-layout payloads
// above.
const fleetProtocolVersion = 4

// hello is this protocol's side of the shared handshake.
var hello = frame.Hello{Proto: "fleet", Version: fleetProtocolVersion}

// fleetEnvelope is the one-of union every control frame carries; a
// payload carries its first set field.
type fleetEnvelope struct {
	TableGet   *tableGetMsg
	TableRes   *tableResMsg
	Cut        *cutMsg
	State      *stateMsg
	Offer      *offerMsg
	OfferAck   *offerAckMsg
	Commit     *commitMsg
	Abort      *abortMsg
	Checkpoint *checkpointMsg
	Done       *doneMsg
}

// tableGetMsg asks for the peer's installed table. It doubles as the
// drain resolver's commit probe: a gaining peer that committed answers
// with the new epoch.
type tableGetMsg struct{}

// tableResMsg answers a tableGetMsg; Table is nil when the peer has
// none.
type tableResMsg struct {
	Table *Table
}

// cutMsg tells the old owner to drain one stripe: bar writes to
// [Lo, Hi], cut a consistent range snapshot, and redirect the stripe's
// traffic to To (data address) quoting NewEpoch until the migration
// commits or aborts. ToControl is where the drain resolver asks about
// the gaining peer's fate if the coordinator dies before deciding.
type cutMsg struct {
	Stripe    int
	Lo, Hi    uint64
	To        string
	ToControl string
	NewEpoch  uint64
}

// stateMsg answers a cutMsg with how many devices the drained range
// holds and its snapshot, encoded (serve.Snapshot.Encode). A non-empty
// Err refuses the cut (stripe not owned, bad range) without poisoning the
// session.
type stateMsg struct {
	Stripe  int
	Devices int
	Err     string
	Snap    []byte
}

// offerMsg stages one drained stripe on its new owner, carrying the
// stateMsg's encoded snapshot as it arrived. The state is NOT applied
// yet: it is held against this connection and restored only by a
// commitMsg, or discarded by an abortMsg or the connection closing.
type offerMsg struct {
	Stripe   int
	Lo, Hi   uint64
	NewEpoch uint64
	Snap     []byte
}

// offerAckMsg confirms a stage. A non-empty Err refuses it.
type offerAckMsg struct {
	Stripe int
	Err    string
}

// commitMsg finishes the rebalance on one peer: restore every stripe
// staged on this connection, install Table, and drop every range this
// connection drained. The coordinator sends it gaining-first,
// draining-second, bystanders-last, so at every instant each device has
// at most one owner.
type commitMsg struct {
	Table *Table
}

// abortMsg cancels the rebalance on one peer: staged state is discarded
// and drains are lifted, the stripes staying with their old owners.
type abortMsg struct{}

// checkpointMsg asks the peer to save its store snapshot to its
// configured snapshot path — the operator's pre-kill flush, and the
// smoke test's way of making a SIGKILL lossless.
type checkpointMsg struct{}

// doneMsg acknowledges a commit, abort, or checkpoint; Err reports
// failure without closing the session.
type doneMsg struct {
	Err string
}
