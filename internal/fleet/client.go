package fleet

import (
	"errors"
	"fmt"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/serve"
)

// ClientOptions configures a fleet client.
type ClientOptions struct {
	// Controls lists control addresses to bootstrap and refresh the
	// partition table from; any one reachable peer suffices. Optional
	// when Table is set (the installed table's peers are probed too).
	Controls []string
	// Table seeds the routing table directly (tests, or a caller that
	// already fetched one). Nil fetches from Controls.
	Table *Table

	// Per-peer serve.Client knobs, passed through.
	FrameTimeout time.Duration
	MaxAttempts  int
	BackoffBase  time.Duration
	BackoffMax   time.Duration
}

// maxRedirects bounds how many NotOwner hops one Select follows before
// giving up.
const maxRedirects = 3

// Client routes a serve workload across a fleet. It resolves each
// device's owner locally from its partition table, keeps one serve.Client
// per peer, and self-heals stale routing from the fleet's two signals:
// NotOwner redirects on Select (followed immediately, table refreshed to
// the quoted epoch) and Rejected feedback bounces (re-queued and
// re-delivered to the new owner, where the selection-slot dedup makes the
// replay at-most-once). Like serve.Client, it is synchronous and not
// goroutine-safe: one goroutine per Client.
type Client struct {
	opts  ClientOptions
	table *Table
	peers map[string]*serve.Client // keyed by data address
	slots map[uint64]uint64        // device -> slot of its last selection
	last  map[uint64]string        // device -> data address that served its last Select
	// requeue holds feedback items bounced by a no-longer-owning peer,
	// awaiting re-delivery; wantEpoch is the highest epoch a bounce or
	// redirect quoted, the "refresh at least this far" signal.
	requeue   []serve.FeedbackItem
	wantEpoch uint64
	redirects uint64
	closed    bool
}

// NewClient builds a fleet client, fetching the initial table from
// Controls unless one is supplied.
func NewClient(opts ClientOptions) (*Client, error) {
	c := &Client{
		opts:  opts,
		table: opts.Table.Clone(),
		peers: make(map[string]*serve.Client),
		slots: make(map[uint64]uint64),
		last:  make(map[uint64]string),
	}
	if c.table == nil {
		c.refreshTable()
	}
	if c.table == nil {
		return nil, fmt.Errorf("fleet: no table: none supplied and no control peer reachable")
	}
	if err := c.table.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Table returns a copy of the client's current routing table.
func (c *Client) Table() *Table { return c.table.Clone() }

// Redirects returns how many NotOwner redirects this client followed —
// each one a request that raced a migration and healed.
func (c *Client) Redirects() uint64 { return c.redirects }

// controlAddrs is every control address worth asking for a table: the
// current table's peers first (freshest roster), then the bootstrap
// list.
func (c *Client) controlAddrs() []string {
	var addrs []string
	seen := make(map[string]bool)
	if c.table != nil {
		for _, p := range c.table.Peers {
			if !seen[p.Control] {
				seen[p.Control] = true
				addrs = append(addrs, p.Control)
			}
		}
	}
	for _, a := range c.opts.Controls {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// refreshTable adopts the highest-epoch table any reachable control peer
// holds, stopping early once the wanted epoch is reached.
func (c *Client) refreshTable() {
	best := c.table
	for _, addr := range c.controlAddrs() {
		tab, err := FetchTable(addr, "fleet-client", frame.DialTimeout)
		if err != nil || tab == nil {
			continue
		}
		if best == nil || tab.Epoch > best.Epoch {
			best = tab
		}
		if c.wantEpoch != 0 && best != nil && best.Epoch >= c.wantEpoch {
			break
		}
	}
	c.table = best
	c.wantEpoch = 0
}

// peer returns (dialing on first use) the serve client for a data
// address.
func (c *Client) peer(addr string) (*serve.Client, error) {
	if sc, ok := c.peers[addr]; ok {
		return sc, nil
	}
	sc, err := serve.Dial(addr, serve.ClientOptions{
		FrameTimeout: c.opts.FrameTimeout,
		MaxAttempts:  c.opts.MaxAttempts,
		BackoffBase:  c.opts.BackoffBase,
		BackoffMax:   c.opts.BackoffMax,
		// Bounced items re-queue for re-delivery to the new owner. The
		// callback runs synchronously inside this client's own call
		// stack (one goroutine per Client), so plain appends are safe;
		// the append copies the items out of the loan.
		OnRejected: func(epoch uint64, items []serve.FeedbackItem) {
			c.requeue = append(c.requeue, items...)
			if epoch > c.wantEpoch {
				c.wantEpoch = epoch
			}
		},
	})
	if err != nil {
		return nil, err
	}
	c.peers[addr] = sc
	return sc, nil
}

// ownerAddr resolves a device to its owner's data address.
func (c *Client) ownerAddr(device uint64) string {
	return c.table.Owner(device).Addr
}

// dispatchRequeued re-delivers bounced feedback to the devices' current
// owners. One pass per call: an item that bounces again (the table raced
// another migration) re-queues through OnRejected and rides the next
// call.
func (c *Client) dispatchRequeued() error {
	if len(c.requeue) == 0 {
		return nil
	}
	if c.wantEpoch > c.table.Epoch {
		c.refreshTable()
	}
	items := c.requeue
	c.requeue = nil
	groups := make(map[string][]serve.FeedbackItem)
	for _, it := range items {
		addr := c.ownerAddr(it.Device)
		groups[addr] = append(groups[addr], it)
	}
	for addr, g := range groups {
		sc, err := c.peer(addr)
		if err == nil {
			err = sc.EnqueueFeedback(g)
		}
		if err != nil {
			c.requeue = append(c.requeue, g...)
			return err
		}
	}
	return nil
}

// syncPeer makes one peer's client quiescent: flush its buffer and ping
// it, so every report it held has been consumed — or bounced into the
// requeue — before the caller moves on.
func (c *Client) syncPeer(addr string) error {
	sc, ok := c.peers[addr]
	if !ok {
		return nil
	}
	if err := sc.Flush(); err != nil {
		return err
	}
	return sc.Ping()
}

// Select picks an arm for device, following NotOwner redirects across
// migrations: each hop goes where the refusing peer pointed (or, with no
// hint, where a refreshed table points) until a peer answers or the hop
// budget runs out.
//
// Ordering across a migration: when a device's route moves, its previous
// peer is synced first — buffered reports flushed, bounces collected and
// re-delivered — before the new owner is asked to select. Per-connection
// the serve client already flushes feedback ahead of every select, so
// this extends the same guarantee across peers: every report a caller
// issued for a device is applied before that device's next selection, no
// matter how many owners it crossed.
func (c *Client) Select(device uint64, arms []int) (int, error) {
	if c.closed {
		return -1, fmt.Errorf("fleet: client closed")
	}
	if err := c.dispatchRequeued(); err != nil {
		return -1, err
	}
	if c.wantEpoch > c.table.Epoch {
		c.refreshTable()
	}
	addr := c.ownerAddr(device)
	for hop := 0; hop <= maxRedirects; hop++ {
		if prev, ok := c.last[device]; ok && prev != addr {
			if err := c.syncPeer(prev); err != nil {
				return -1, err
			}
			delete(c.last, device)
			if err := c.dispatchRequeued(); err != nil {
				return -1, err
			}
		}
		sc, err := c.peer(addr)
		if err != nil {
			return -1, err
		}
		arm, slot, err := sc.SelectSlot(device, arms)
		if err == nil {
			c.slots[device] = slot
			c.last[device] = addr
			return arm, nil
		}
		var no *serve.NotOwnerError
		if !errors.As(err, &no) {
			return -1, err
		}
		c.redirects++
		if no.Epoch > c.wantEpoch {
			c.wantEpoch = no.Epoch
		}
		if no.Owner != "" && no.Owner != addr {
			addr = no.Owner
			continue
		}
		c.refreshTable()
		addr = c.ownerAddr(device)
	}
	return -1, fmt.Errorf("fleet: device %d still redirecting after %d hops", device, maxRedirects)
}

// Feedback reports the reward for device's most recent Select through
// this client. Delivery targets the device's current owner; a peer that
// lost the device mid-flight bounces the item back and it re-delivers on
// the next call (the slot dedup makes any double delivery harmless).
func (c *Client) Feedback(device uint64, arm int, reward float64) error {
	if c.closed {
		return fmt.Errorf("fleet: client closed")
	}
	slot, ok := c.slots[device]
	if !ok {
		return fmt.Errorf("fleet: no selection recorded for device %d", device)
	}
	sc, err := c.peer(c.ownerAddr(device))
	if err != nil {
		return err
	}
	return sc.FeedbackSlot(device, arm, slot, reward)
}

// Flush is the fleet-wide delivery barrier: every peer is flushed and
// pinged (the pong proves it consumed — or bounced — every report), and
// any bounces are re-delivered and re-flushed, until a full quiet round.
// A successful Flush means every report this client accepted has been
// applied by some owning peer.
func (c *Client) Flush() error {
	if c.closed {
		return fmt.Errorf("fleet: client closed")
	}
	for round := 0; ; round++ {
		for _, sc := range c.peers {
			if err := sc.Flush(); err != nil {
				return err
			}
		}
		for _, sc := range c.peers {
			if err := sc.Ping(); err != nil {
				return err
			}
		}
		if len(c.requeue) == 0 {
			return nil
		}
		if round >= maxRedirects+1 {
			return fmt.Errorf("fleet: %d feedback items still bouncing after %d flush rounds", len(c.requeue), round+1)
		}
		if err := c.dispatchRequeued(); err != nil {
			return err
		}
	}
}

// Release ends devices' sessions on their owning peers and forgets their
// slots.
func (c *Client) Release(devices ...uint64) error {
	if c.closed {
		return fmt.Errorf("fleet: client closed")
	}
	for _, d := range devices {
		sc, err := c.peer(c.ownerAddr(d))
		if err != nil {
			return err
		}
		if err := sc.Release(d); err != nil {
			return err
		}
		delete(c.slots, d)
	}
	return nil
}

// Close flushes what it can and closes every peer connection; the first
// error wins but every peer is closed regardless.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	for _, sc := range c.peers {
		if err := sc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
