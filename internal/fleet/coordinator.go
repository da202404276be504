package fleet

import (
	"fmt"
	"net"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/obsv"
)

// controlConn is one synchronous fleet-control session: dial, hello,
// then strict request/response round trips under per-frame deadlines.
type controlConn struct {
	fc   *frame.Conn
	peer PeerInfo
	// epoch is the peer's installed table epoch as the rebalance probe
	// read it (0 when it has none).
	epoch uint64
}

// dialControl opens a control session to peer, naming this side from in
// the hello. frames/bytes, when non-nil, count the connection's traffic in
// both directions (the coordinator points these at its migrated-bytes
// counter). The dial is bounded by frame.DialTimeout, each frame by
// frameTimeout.
func dialControl(peer PeerInfo, from string, frameTimeout time.Duration, frames, bytes *obsv.Counter) (*controlConn, error) {
	conn, err := net.DialTimeout("tcp", peer.Control, frame.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial control %s: %w", peer.Control, err)
	}
	cc := &controlConn{fc: frame.NewConn(conn, 64<<10, frameTimeout, true), peer: peer}
	if frames != nil && bytes != nil {
		cc.fc.Instrument(frames, bytes, frames, bytes)
	}
	h := hello
	h.Info = from
	ack, err := cc.fc.Greet(h)
	switch {
	case err != nil:
		conn.Close()
		return nil, fmt.Errorf("fleet: %s: %w", peer.Control, err)
	case peer.ID != "" && ack.Info != peer.ID:
		conn.Close()
		return nil, fmt.Errorf("fleet: %s identifies as %q, roster says %q", peer.Control, ack.Info, peer.ID)
	}
	if peer.ID == "" {
		cc.peer.ID = ack.Info
	}
	return cc, nil
}

func (cc *controlConn) roundTrip(req *fleetEnvelope) (*fleetEnvelope, error) {
	if err := cc.fc.WriteFrames(req.appendTo(nil)); err != nil {
		return nil, err
	}
	return readEnvelope(cc.fc)
}

func (cc *controlConn) close() { cc.fc.Close() }

// FetchTable asks the peer at controlAddr for its installed partition
// table (nil when it has none yet). This is how a booting peer joins a
// running fleet, how a client bootstraps its routing, and how a draining
// peer's resolver probes a gaining peer's fate. timeout bounds each
// control frame; the dial is bounded by frame.DialTimeout.
func FetchTable(controlAddr, from string, timeout time.Duration) (*Table, error) {
	cc, err := dialControl(PeerInfo{Control: controlAddr}, from, timeout, nil, nil)
	if err != nil {
		return nil, err
	}
	defer cc.close()
	env, err := cc.roundTrip(&fleetEnvelope{TableGet: &tableGetMsg{}})
	if err != nil {
		return nil, err
	}
	if env.TableRes == nil {
		return nil, fmt.Errorf("fleet: %s answered TableGet with a non-table frame", controlAddr)
	}
	return env.TableRes.Table, nil
}

// Checkpoint asks the peer at controlAddr to save its store snapshot to
// its configured snapshot path — the operator's pre-kill flush. timeout
// bounds each control frame, as for FetchTable.
func Checkpoint(controlAddr, from string, timeout time.Duration) error {
	cc, err := dialControl(PeerInfo{Control: controlAddr}, from, timeout, nil, nil)
	if err != nil {
		return err
	}
	defer cc.close()
	env, err := cc.roundTrip(&fleetEnvelope{Checkpoint: &checkpointMsg{}})
	if err != nil {
		return err
	}
	if env.Done == nil {
		return fmt.Errorf("fleet: %s answered Checkpoint with a non-done frame", controlAddr)
	}
	if env.Done.Err != "" {
		return fmt.Errorf("fleet: checkpoint on %s: %s", controlAddr, env.Done.Err)
	}
	return nil
}

// Coordinator drives rebalances. It is stateless between calls — every
// Rebalance probes the roster fresh, adopts the highest installed epoch
// as the truth, and proposes the successor table — so any process
// (typically one elected fleetd, but an operator tool works too) can
// coordinate, serially.
type Coordinator struct {
	// Self names this coordinator in hellos (diagnostics only).
	Self string
	// FrameTimeout bounds each control frame: one times out no sooner
	// than FrameTimeout after it starts, and at most 1/16 later. Zero
	// means frame.DefaultTimeout (2 minutes: snapshot frames for a big
	// stripe take real time), negative disables.
	FrameTimeout time.Duration
	// Metrics, when set, receives the coordinator-side migration
	// counters. Nil means a private unregistered set.
	Metrics *Metrics
}

func (c *Coordinator) metrics() *Metrics {
	if c.Metrics == nil {
		c.Metrics = newMetrics()
	}
	return c.Metrics
}

// move is one stripe's in-flight migration on the coordinator's side.
type move struct {
	stripe   int
	lo, hi   uint64
	from, to *controlConn
}

// Rebalance converges the fleet onto the live subset of roster: probe
// every rostered peer, adopt the highest installed table as current
// truth, propose its successor over the peers that answered, drain and
// stage every stripe the successor moves, and commit gaining-first. It
// returns the committed table — or the current one when the live peer
// set already matches (a no-op probe, no epoch burned).
//
// Failure is all-or-nothing up to the first commit: any refused cut,
// failed stage, or unreachable old owner aborts every peer and leaves
// ownership exactly where it was. After the first commit the migration
// IS committed — a peer the commit fan-out then fails to reach heals
// through its drain resolver or its next table fetch.
func (c *Coordinator) Rebalance(roster []PeerInfo) (*Table, error) {
	if len(roster) == 0 {
		return nil, fmt.Errorf("fleet: rebalance over an empty roster")
	}
	m := c.metrics()

	// Probe: connect to every rostered peer; the ones that answer are
	// the fleet we converge onto.
	conns := make(map[string]*controlConn)
	defer func() {
		for _, cc := range conns {
			cc.close()
		}
	}()
	var live []PeerInfo
	frames := new(obsv.Counter) // frame counts stay private; bytes feed the exported counter
	for _, p := range roster {
		cc, err := dialControl(p, c.Self, frame.Timeout(c.FrameTimeout), frames, m.MigratedBytes)
		if err != nil {
			continue
		}
		conns[p.ID] = cc
		live = append(live, p)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("fleet: no rostered peer reachable")
	}

	// Adopt the highest installed epoch as the current truth.
	var cur *Table
	for _, cc := range conns {
		env, err := cc.roundTrip(&fleetEnvelope{TableGet: &tableGetMsg{}})
		if err != nil {
			return nil, fmt.Errorf("fleet: table fetch from %s: %w", cc.peer.ID, err)
		}
		if env.TableRes == nil {
			return nil, fmt.Errorf("fleet: %s answered TableGet with a non-table frame", cc.peer.ID)
		}
		if t := env.TableRes.Table; t != nil {
			cc.epoch = t.Epoch
			if cur == nil || t.Epoch > cur.Epoch {
				cur = t
			}
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("fleet: no reachable peer has a table (bootstrap one peer first)")
	}

	// Propose the successor over the live set; no-op when nothing moves.
	desired, err := NewTable(cur.StripeBits, live)
	if err != nil {
		return nil, err
	}
	desired.Epoch = cur.Epoch + 1
	var moves []move
	for s := 0; s < cur.Stripes(); s++ {
		oldID := cur.Peers[cur.OwnerOf(s)].ID
		newID := desired.Peers[desired.OwnerOf(s)].ID
		if oldID == newID {
			continue
		}
		from, ok := conns[oldID]
		if !ok {
			return nil, fmt.Errorf("fleet: stripe %d must move off %s, which is unreachable — its sessions cannot be drained losslessly (restore it from its snapshot first)", s, oldID)
		}
		lo, hi := desired.StripeRange(s)
		moves = append(moves, move{stripe: s, lo: lo, hi: hi, from: from, to: conns[newID]})
	}
	if len(moves) == 0 && samePeers(cur, desired) {
		// Converged already; push the current table to any peer whose
		// probed table trailed it (a rejoiner holding an old epoch).
		for _, cc := range conns {
			if cc.epoch < cur.Epoch {
				if _, err := cc.roundTrip(&fleetEnvelope{Commit: &commitMsg{Table: cur}}); err != nil {
					return nil, err
				}
			}
		}
		return cur, nil
	}

	// Drain and stage every moving stripe. Any failure aborts everyone.
	abort := func() {
		for _, cc := range conns {
			_, _ = cc.roundTrip(&fleetEnvelope{Abort: &abortMsg{}})
		}
	}
	for _, mv := range moves {
		start := time.Now()
		env, err := mv.from.roundTrip(&fleetEnvelope{Cut: &cutMsg{
			Stripe: mv.stripe, Lo: mv.lo, Hi: mv.hi,
			To: mv.to.peer.Addr, ToControl: mv.to.peer.Control,
			NewEpoch: desired.Epoch,
		}})
		if err != nil {
			abort()
			return nil, fmt.Errorf("fleet: cut stripe %d on %s: %w", mv.stripe, mv.from.peer.ID, err)
		}
		if env.State == nil || env.State.Err != "" {
			abort()
			return nil, fmt.Errorf("fleet: cut stripe %d on %s refused: %s", mv.stripe, mv.from.peer.ID, stateErr(env.State))
		}
		env2, err := mv.to.roundTrip(&fleetEnvelope{Offer: &offerMsg{
			Stripe: mv.stripe, Lo: mv.lo, Hi: mv.hi,
			NewEpoch: desired.Epoch, Snap: env.State.Snap,
		}})
		if err != nil {
			abort()
			return nil, fmt.Errorf("fleet: stage stripe %d on %s: %w", mv.stripe, mv.to.peer.ID, err)
		}
		if env2.OfferAck == nil || env2.OfferAck.Err != "" {
			abort()
			return nil, fmt.Errorf("fleet: stage stripe %d on %s refused: %s", mv.stripe, mv.to.peer.ID, ackErr(env2.OfferAck))
		}
		m.MigrationLatency.Observe(time.Since(start).Nanoseconds())
		m.MigratedDevices.Add(uint64(max(env.State.Devices, 0)))
	}

	// Commit: gaining peers first (their staged state must be owned the
	// instant the table says so), draining second, bystanders last. The
	// first successful commit makes the migration fact; later failures
	// are left to the peers' own healing.
	gaining := make(map[string]bool)
	draining := make(map[string]bool)
	for _, mv := range moves {
		gaining[mv.to.peer.ID] = true
		draining[mv.from.peer.ID] = true
	}
	order := make([]*controlConn, 0, len(conns))
	for _, p := range desired.Peers {
		if gaining[p.ID] {
			order = append(order, conns[p.ID])
		}
	}
	for _, cc := range conns {
		if draining[cc.peer.ID] && !gaining[cc.peer.ID] {
			order = append(order, cc)
		}
	}
	for _, cc := range conns {
		if !gaining[cc.peer.ID] && !draining[cc.peer.ID] {
			order = append(order, cc)
		}
	}
	committed := false
	for _, cc := range order {
		env, err := cc.roundTrip(&fleetEnvelope{Commit: &commitMsg{Table: desired}})
		if err == nil && env.Done != nil && env.Done.Err != "" {
			err = fmt.Errorf("%s", env.Done.Err)
		}
		if err != nil {
			if !committed {
				abort()
				return nil, fmt.Errorf("fleet: commit on %s: %w", cc.peer.ID, err)
			}
			continue // committed fact; this peer heals itself
		}
		committed = true
	}
	m.Migrations.Add(uint64(len(moves)))
	m.TableEpoch.Set(int64(desired.Epoch))
	return desired, nil
}

// samePeers reports whether two tables name the same peers (ids and
// addresses) with the same geometry.
func samePeers(a, b *Table) bool {
	if a.StripeBits != b.StripeBits || len(a.Peers) != len(b.Peers) {
		return false
	}
	for i := range a.Peers {
		if a.Peers[i] != b.Peers[i] {
			return false
		}
	}
	return true
}

func stateErr(st *stateMsg) string {
	if st == nil {
		return "non-state reply"
	}
	return st.Err
}

func ackErr(ack *offerAckMsg) string {
	if ack == nil {
		return "non-ack reply"
	}
	return ack.Err
}
