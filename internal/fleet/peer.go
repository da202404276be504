package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/serve"
)

// PeerOptions configures one fleet member's control plane.
type PeerOptions struct {
	// ID is the peer's stable name — the rendezvous-hash identity, so it
	// must match the id the tables carry for this peer.
	ID string
	// SnapshotPath is where a Checkpoint request saves the store; empty
	// refuses checkpoints.
	SnapshotPath string
	// FrameTimeout bounds each control frame read and write: one times
	// out no sooner than FrameTimeout after it starts, and at most 1/16
	// later. Zero means frame.DefaultTimeout (2 minutes), negative
	// disables (synchronous pipes in tests).
	FrameTimeout time.Duration
	// ResolveAttempts and ResolveDelay shape the drain resolver: how
	// many times, and how far apart, an orphaned drain probes the
	// gaining peer before concluding the migration died un-committed.
	// Zero means 3 attempts, 200ms apart.
	ResolveAttempts int
	ResolveDelay    time.Duration
	// Metrics, when set, receives the peer-side fleet counters
	// (Redirects, TableEpoch). Nil means a private unregistered set.
	Metrics *Metrics
}

func (o PeerOptions) resolveAttempts() int {
	if o.ResolveAttempts <= 0 {
		return 3
	}
	return o.ResolveAttempts
}

func (o PeerOptions) resolveDelay() time.Duration {
	if o.ResolveDelay <= 0 {
		return 200 * time.Millisecond
	}
	return o.ResolveDelay
}

// Peer is one fleet member's control plane wrapped around its
// serve.Store: it owns the partition view the store's hot path consults,
// answers the fleet control protocol (table fetch, drain, stage, commit,
// abort, checkpoint), and resolves drains orphaned by a dead
// coordinator. The data plane — the serve protocol itself — stays a
// plain serve.Server on the same store; the fleet layer only decides
// which devices that server may touch.
type Peer struct {
	store *serve.Store
	opts  PeerOptions
	m     *Metrics

	view atomic.Pointer[ownView]

	mu     sync.Mutex
	table  *Table
	drains map[int]*drain

	conns frame.Listener
}

// NewPeer wires a fleet view onto store: from here on the store answers
// only for stripes the installed table assigns to opts.ID, redirecting
// everything else. With no table installed yet the peer owns nothing —
// install a bootstrap table (InstallTable) or fetch one from a running
// peer (FetchTable) before serving traffic.
func NewPeer(store *serve.Store, opts PeerOptions) (*Peer, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("fleet: peer needs an id")
	}
	p := &Peer{
		store:  store,
		opts:   opts,
		m:      opts.Metrics,
		drains: make(map[int]*drain),
	}
	if p.m == nil {
		p.m = newMetrics()
	}
	store.SetOwnership(p.ownership)
	return p, nil
}

// ownership is the store's hot-path hook: one atomic view load, two
// array reads, and — only on the cold not-owned branch — one counter
// increment.
func (p *Peer) ownership(key uint64) (bool, uint64, string) {
	owned, epoch, owner := p.view.Load().check(key)
	if !owned {
		p.m.Redirects.Inc()
	}
	return owned, epoch, owner
}

// Store returns the wrapped serve store.
func (p *Peer) Store() *serve.Store { return p.store }

// ID returns the peer's stable name.
func (p *Peer) ID() string { return p.opts.ID }

// Table returns a copy of the installed partition table, nil before any.
func (p *Peer) Table() *Table {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.table.Clone()
}

// Epoch returns the installed table's epoch, 0 before any.
func (p *Peer) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.table == nil {
		return 0
	}
	return p.table.Epoch
}

// InstallTable adopts tab if it is newer than the installed table (or
// the first). Stale tables are ignored without error — epochs are the
// total order, and the newest table always wins.
func (p *Peer) InstallTable(tab *Table) error {
	if err := tab.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.table != nil && tab.Epoch <= p.table.Epoch {
		return nil
	}
	p.installLocked(tab.Clone())
	return nil
}

// installLocked publishes tab and recompiles the view. Caller holds
// p.mu.
func (p *Peer) installLocked(tab *Table) {
	p.table = tab
	p.view.Store(compileView(tab, p.opts.ID, p.drains))
	p.m.TableEpoch.Set(int64(tab.Epoch))
}

// ServeControl accepts control connections until the listener closes,
// retrying transient accept failures, then drains the connection
// goroutines, exactly as serve.Server.Serve does.
func (p *Peer) ServeControl(ln net.Listener) error { return p.conns.Serve(ln, p.serveControl) }

// Close tears down every live control connection; pair with closing the
// listener.
func (p *Peer) Close() { p.conns.Close() }

// connState is what one control connection has in flight: stripes staged
// onto this peer and stripes drained off it. Both die with the
// connection — staged state is discarded outright, drains go through the
// resolver — which is what bounds the blast radius of a dead
// coordinator to "nothing happened".
type connState struct {
	staged map[int]*serve.Snapshot
	drains map[int]*drain
}

// serveControl runs one control connection's request loop.
func (p *Peer) serveControl(conn net.Conn) error {
	fc := frame.NewConn(conn, 64<<10, frame.Timeout(p.opts.FrameTimeout), true)
	ack := hello
	ack.Info = p.opts.ID
	if _, err := fc.Accept(ack); err != nil {
		return err
	}

	st := &connState{staged: make(map[int]*serve.Snapshot), drains: make(map[int]*drain)}
	defer p.connClosed(st)
	for {
		env, err := readEnvelope(fc)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		var reply *fleetEnvelope
		switch {
		case env.TableGet != nil:
			reply = &fleetEnvelope{TableRes: &tableResMsg{Table: p.Table()}}
		case env.Cut != nil:
			reply = &fleetEnvelope{State: p.handleCut(st, env.Cut)}
		case env.Offer != nil:
			reply = &fleetEnvelope{OfferAck: p.handleOffer(st, env.Offer)}
		case env.Commit != nil:
			reply = &fleetEnvelope{Done: p.handleCommit(st, env.Commit.Table)}
		case env.Abort != nil:
			p.handleAbort(st)
			reply = &fleetEnvelope{Done: &doneMsg{}}
		case env.Checkpoint != nil:
			reply = &fleetEnvelope{Done: p.handleCheckpoint()}
		default:
			return fmt.Errorf("fleet: unexpected control frame")
		}
		if err := fc.WriteFrames(reply.appendTo(nil)); err != nil {
			return err
		}
	}
}

// handleCut drains one stripe: record the drain, publish the rejecting
// view (barring writes to the range), then cut the range snapshot — in
// that order, which is what makes the cut exact (see
// serve.Store.SetOwnership).
func (p *Peer) handleCut(st *connState, cut *cutMsg) *stateMsg {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.table == nil {
		return &stateMsg{Stripe: cut.Stripe, Err: "no table installed"}
	}
	if cut.Stripe < 0 || cut.Stripe >= p.table.Stripes() {
		return &stateMsg{Stripe: cut.Stripe, Err: fmt.Sprintf("stripe %d outside the table's %d stripes", cut.Stripe, p.table.Stripes())}
	}
	if lo, hi := p.table.StripeRange(cut.Stripe); lo != cut.Lo || hi != cut.Hi {
		return &stateMsg{Stripe: cut.Stripe, Err: "cut range disagrees with the stripe geometry (stripe-bits mismatch?)"}
	}
	if p.table.Peers[p.table.OwnerOf(cut.Stripe)].ID != p.opts.ID {
		return &stateMsg{Stripe: cut.Stripe, Err: "not the stripe's owner"}
	}
	if _, busy := p.drains[cut.Stripe]; busy {
		return &stateMsg{Stripe: cut.Stripe, Err: "stripe already draining"}
	}
	if cut.NewEpoch <= p.table.Epoch {
		return &stateMsg{Stripe: cut.Stripe, Err: fmt.Sprintf("migration epoch %d not newer than installed %d", cut.NewEpoch, p.table.Epoch)}
	}
	d := &drain{stripe: cut.Stripe, lo: cut.Lo, hi: cut.Hi, to: cut.To, toControl: cut.ToControl, newEpoch: cut.NewEpoch}
	p.drains[cut.Stripe] = d
	st.drains[cut.Stripe] = d
	p.view.Store(compileView(p.table, p.opts.ID, p.drains))
	sn := p.store.SnapshotRange(cut.Lo, cut.Hi)
	var buf bytes.Buffer
	sn.Encode(&buf) // writes to a bytes.Buffer cannot fail
	return &stateMsg{Stripe: cut.Stripe, Devices: len(sn.Devices), Snap: buf.Bytes()}
}

// handleOffer stages one incoming stripe against this connection. The
// snapshot is read and validated now — its version, each record's layout
// and state (serve.ReadSnapshot), its range, and its algorithm, seed and
// every record against the store's bounds (serve.Store.CheckSnapshot) —
// so commit, which must not half-fail, applies a vetted snapshot.
func (p *Peer) handleOffer(st *connState, off *offerMsg) *offerAckMsg {
	if len(off.Snap) == 0 {
		return &offerAckMsg{Stripe: off.Stripe, Err: "offer carries no snapshot"}
	}
	sn, err := serve.ReadSnapshot(bytes.NewReader(off.Snap))
	if err != nil {
		return &offerAckMsg{Stripe: off.Stripe, Err: err.Error()}
	}
	for _, rec := range sn.Devices {
		if k := serve.RouteKey(rec.Device); k < off.Lo || k > off.Hi {
			return &offerAckMsg{Stripe: off.Stripe, Err: fmt.Sprintf("device %d outside the offered range", rec.Device)}
		}
	}
	if err := p.store.CheckSnapshot(sn); err != nil {
		return &offerAckMsg{Stripe: off.Stripe, Err: err.Error()}
	}
	p.mu.Lock()
	st.staged[off.Stripe] = sn
	p.mu.Unlock()
	return &offerAckMsg{Stripe: off.Stripe}
}

// handleCommit finishes a rebalance on this peer: restore the stripes
// staged on this connection, then install the new table (flipping the
// view, so restored stripes become servable only after their state is
// in place), then drop the ranges this connection drained (invisible
// since the view flip).
func (p *Peer) handleCommit(st *connState, tab *Table) *doneMsg {
	if tab == nil {
		return &doneMsg{Err: "commit carries no table"}
	}
	if err := tab.Validate(); err != nil {
		return &doneMsg{Err: err.Error()}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sn := range st.staged {
		if err := p.store.RestoreRange(sn); err != nil {
			return &doneMsg{Err: err.Error()}
		}
	}
	for s, d := range st.drains {
		if p.drains[s] == d {
			delete(p.drains, s)
		}
	}
	if p.table == nil || tab.Epoch > p.table.Epoch {
		p.installLocked(tab.Clone())
	} else {
		p.view.Store(compileView(p.table, p.opts.ID, p.drains))
	}
	for _, d := range st.drains {
		p.store.RemoveRange(d.lo, d.hi)
	}
	st.staged = make(map[int]*serve.Snapshot)
	st.drains = make(map[int]*drain)
	return &doneMsg{}
}

// handleAbort cancels the connection's in-flight rebalance: staged state
// is discarded, drains are lifted, and the stripes stay where they were.
func (p *Peer) handleAbort(st *connState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s, d := range st.drains {
		if p.drains[s] == d {
			delete(p.drains, s)
		}
	}
	st.staged = make(map[int]*serve.Snapshot)
	st.drains = make(map[int]*drain)
	p.view.Store(compileView(p.table, p.opts.ID, p.drains))
}

// handleCheckpoint saves the store snapshot to the configured path.
func (p *Peer) handleCheckpoint() *doneMsg {
	if p.opts.SnapshotPath == "" {
		return &doneMsg{Err: "peer has no snapshot path"}
	}
	if err := p.store.SaveFile(p.opts.SnapshotPath); err != nil {
		return &doneMsg{Err: err.Error()}
	}
	return &doneMsg{}
}

// connClosed runs when a control connection dies: its staged state is
// discarded (commit can only arrive on the connection that staged it),
// and each drain it left undecided is resolved against the gaining
// peer's fate.
func (p *Peer) connClosed(st *connState) {
	p.mu.Lock()
	drains := st.drains
	st.staged = make(map[int]*serve.Snapshot)
	st.drains = make(map[int]*drain)
	p.mu.Unlock()
	for _, d := range drains {
		p.resolveDrain(d)
	}
}

// resolveDrain decides an orphaned drain the way the coordinator no
// longer can: ask the gaining peer whether the migration's epoch ever
// committed. If it did, this peer is the only one that missed the memo —
// commit locally (adopt the gaining peer's table, drop the range). If
// the gaining peer answers with an older epoch, or never answers, the
// migration died un-committed: lift the drain and keep serving the
// range, every session intact. The window where the gaining peer is
// still processing its own commit is covered by the retry spacing.
func (p *Peer) resolveDrain(d *drain) {
	attempts, delay := p.opts.resolveAttempts(), p.opts.resolveDelay()
	timeout := frame.Timeout(p.opts.FrameTimeout)
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for try := 0; try < attempts; try++ {
		if try > 0 {
			time.Sleep(delay)
		}
		tab, err := FetchTable(d.toControl, p.opts.ID, timeout)
		if err != nil {
			continue
		}
		if tab != nil && tab.Epoch >= d.newEpoch {
			p.mu.Lock()
			if p.drains[d.stripe] == d {
				delete(p.drains, d.stripe)
			}
			if p.table == nil || tab.Epoch > p.table.Epoch {
				p.installLocked(tab)
			} else {
				p.view.Store(compileView(p.table, p.opts.ID, p.drains))
			}
			p.store.RemoveRange(d.lo, d.hi)
			p.mu.Unlock()
			return
		}
		break // a definite answer below the migration epoch: not committed
	}
	p.mu.Lock()
	if p.drains[d.stripe] == d {
		delete(p.drains, d.stripe)
		p.view.Store(compileView(p.table, p.opts.ID, p.drains))
	}
	p.mu.Unlock()
}
