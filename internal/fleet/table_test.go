package fleet

import (
	"testing"
	"time"

	"smartexp3/internal/serve"
)

func testPeers(ids ...string) []PeerInfo {
	ps := make([]PeerInfo, len(ids))
	for i, id := range ids {
		ps[i] = PeerInfo{ID: id, Addr: id + ":data", Control: id + ":ctrl"}
	}
	return ps
}

func mustTable(t *testing.T, bits uint8, ids ...string) *Table {
	t.Helper()
	tab, err := NewTable(bits, testPeers(ids...))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableValidateRejectsMalformedTables(t *testing.T) {
	good := mustTable(t, DefaultStripeBits, "a", "b")
	cases := []struct {
		name string
		mut  func(*Table)
	}{
		{"epoch zero", func(tb *Table) { tb.Epoch = 0 }},
		{"bits zero", func(tb *Table) { tb.StripeBits = 0 }},
		{"bits too big", func(tb *Table) { tb.StripeBits = maxStripeBits + 1 }},
		{"no peers", func(tb *Table) { tb.Peers = nil }},
		{"missing id", func(tb *Table) { tb.Peers[0].ID = "" }},
		{"missing data addr", func(tb *Table) { tb.Peers[1].Addr = "" }},
		{"missing control addr", func(tb *Table) { tb.Peers[1].Control = "" }},
		{"unsorted", func(tb *Table) { tb.Peers[0], tb.Peers[1] = tb.Peers[1], tb.Peers[0] }},
		{"duplicate id", func(tb *Table) { tb.Peers[1].ID = tb.Peers[0].ID }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := good.Clone()
			tc.mut(tab)
			if err := tab.Validate(); err == nil {
				t.Fatalf("Validate accepted a table with %s", tc.name)
			}
		})
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a good table: %v", err)
	}
}

// TestStripeRangesTileTheKeySpace pins the stripe geometry: the ranges
// are contiguous, disjoint, inclusive on both ends, and cover every key,
// and StripeOf agrees with them at both edges.
func TestStripeRangesTileTheKeySpace(t *testing.T) {
	for _, bits := range []uint8{1, 3, DefaultStripeBits, 10} {
		tab := mustTable(t, bits, "a", "b", "c")
		if got := tab.Stripes(); got != 1<<bits {
			t.Fatalf("bits %d: Stripes() = %d", bits, got)
		}
		var next uint64
		for s := 0; s < tab.Stripes(); s++ {
			lo, hi := tab.StripeRange(s)
			if lo != next {
				t.Fatalf("bits %d stripe %d: lo %#x, want %#x (a gap or overlap)", bits, s, lo, next)
			}
			if hi < lo {
				t.Fatalf("bits %d stripe %d: hi %#x below lo %#x", bits, s, hi, lo)
			}
			if tab.StripeOf(lo) != s || tab.StripeOf(hi) != s {
				t.Fatalf("bits %d stripe %d: StripeOf disagrees at the range edges", bits, s)
			}
			next = hi + 1 // wraps to 0 after the last stripe
		}
		if next != 0 {
			t.Fatalf("bits %d: ranges stop at %#x instead of covering the key space", bits, next)
		}
	}
}

// TestRendezvousOwnershipIsDeterministicAndMinimal pins the two
// rendezvous properties everything rests on: ownership is a pure
// function of the table (same table, same owners, regardless of input
// order), and changing the peer set only moves the stripes that involve
// the changed peer.
func TestRendezvousOwnershipIsDeterministicAndMinimal(t *testing.T) {
	tab := mustTable(t, DefaultStripeBits, "a", "b", "c")
	shuffled, err := NewTable(DefaultStripeBits, []PeerInfo{
		{ID: "c", Addr: "c:data", Control: "c:ctrl"},
		{ID: "a", Addr: "a:data", Control: "a:ctrl"},
		{ID: "b", Addr: "b:data", Control: "b:ctrl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for s := 0; s < tab.Stripes(); s++ {
		if tab.OwnerOf(s) != shuffled.OwnerOf(s) {
			t.Fatalf("stripe %d: owner depends on peer input order", s)
		}
		counts[tab.Peers[tab.OwnerOf(s)].ID]++
	}
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] == 0 {
			t.Fatalf("peer %s owns no stripes out of %d; rendezvous distribution is broken (got %v)", id, tab.Stripes(), counts)
		}
	}

	grown := mustTable(t, DefaultStripeBits, "a", "b", "c", "d")
	moved := 0
	for s := 0; s < tab.Stripes(); s++ {
		oldID := tab.Peers[tab.OwnerOf(s)].ID
		newID := grown.Peers[grown.OwnerOf(s)].ID
		if oldID != newID {
			if newID != "d" {
				t.Fatalf("stripe %d moved %s -> %s when only d joined; rendezvous moved a stripe between survivors", s, oldID, newID)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("adding a peer moved no stripes; the new peer would idle forever")
	}

	shrunk := mustTable(t, DefaultStripeBits, "a", "b")
	for s := 0; s < tab.Stripes(); s++ {
		oldID := tab.Peers[tab.OwnerOf(s)].ID
		newID := shrunk.Peers[shrunk.OwnerOf(s)].ID
		if oldID != "c" && oldID != newID {
			t.Fatalf("stripe %d moved %s -> %s when only c left", s, oldID, newID)
		}
	}
}

// TestOwnerResolvesThroughRouteKey pins the device-to-peer path: Owner
// must agree with the StripeOf/OwnerOf composition over serve.RouteKey,
// and devices must spread across peers even with sequential ids.
func TestOwnerResolvesThroughRouteKey(t *testing.T) {
	tab := mustTable(t, DefaultStripeBits, "a", "b", "c")
	counts := make(map[string]int)
	for dev := uint64(0); dev < 3000; dev++ {
		p := tab.Owner(dev)
		want := tab.Peers[tab.OwnerOf(tab.StripeOf(serve.RouteKey(dev)))]
		if p != want {
			t.Fatalf("device %d: Owner says %q, composition says %q", dev, p.ID, want.ID)
		}
		counts[p.ID]++
	}
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] < 300 {
			t.Fatalf("peer %s owns only %d of 3000 sequential devices; routing-key mixing failed (got %v)", id, counts[id], counts)
		}
	}
}

func TestMergeSnapshots(t *testing.T) {
	sn := func(seed int64, devs ...uint64) *serve.Snapshot {
		out := &serve.Snapshot{Version: 1, Algorithm: 0, Seed: seed, Dropped: 1}
		for _, d := range devs {
			out.Devices = append(out.Devices, serve.DeviceRecord{Device: d})
		}
		return out
	}
	merged, err := MergeSnapshots(sn(42, 5, 1), sn(42, 3), sn(42))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Dropped != 3 {
		t.Fatalf("Dropped = %d, want the inputs' sum 3", merged.Dropped)
	}
	for i, want := range []uint64{1, 3, 5} {
		if merged.Devices[i].Device != want {
			t.Fatalf("merged devices not sorted: %v", merged.Devices)
		}
	}
	if _, err := MergeSnapshots(sn(42, 7), sn(42, 7)); err == nil {
		t.Fatal("merge accepted a device present in two snapshots (split ownership)")
	}
	if _, err := MergeSnapshots(sn(42, 1), sn(43, 2)); err == nil {
		t.Fatal("merge accepted snapshots with different seeds")
	}
	if _, err := MergeSnapshots(); err == nil {
		t.Fatal("merge accepted zero snapshots")
	}
}

// TestCompileViewLayersDrains pins the view semantics: a table compiles
// to self/redirect per stripe at the table's epoch, and a drain overlay
// disowns its stripe, redirecting to the gaining peer at the migration's
// target epoch. A nil table compiles to the own-nothing boot view.
func TestCompileViewLayersDrains(t *testing.T) {
	tab := mustTable(t, 2, "a", "b")
	v := compileView(tab, "a", nil)
	for s := 0; s < tab.Stripes(); s++ {
		lo, _ := tab.StripeRange(s)
		owned, epoch, owner := v.check(lo)
		wantSelf := tab.Peers[tab.OwnerOf(s)].ID == "a"
		if owned != wantSelf {
			t.Fatalf("stripe %d: owned=%v, table says %v", s, owned, wantSelf)
		}
		if epoch != tab.Epoch {
			t.Fatalf("stripe %d: epoch %d, want %d", s, epoch, tab.Epoch)
		}
		if owned && owner != "" {
			t.Fatalf("stripe %d: owned but redirecting to %q", s, owner)
		}
		if !owned && owner != "b:data" {
			t.Fatalf("stripe %d: redirect %q, want b:data", s, owner)
		}
	}

	// Drain the first self-owned stripe and the view must disown it.
	self := -1
	for s := 0; s < tab.Stripes(); s++ {
		if tab.Peers[tab.OwnerOf(s)].ID == "a" {
			self = s
			break
		}
	}
	if self < 0 {
		t.Fatal("peer a owns nothing in a 2-peer 4-stripe table")
	}
	lo, hi := tab.StripeRange(self)
	dv := compileView(tab, "a", map[int]*drain{self: {
		stripe: self, lo: lo, hi: hi, to: "b:data", toControl: "b:ctrl", newEpoch: tab.Epoch + 1,
	}})
	owned, epoch, owner := dv.check(lo)
	if owned {
		t.Fatal("draining stripe still owned")
	}
	if epoch != tab.Epoch+1 || owner != "b:data" {
		t.Fatalf("draining stripe redirects to %q at epoch %d, want b:data at %d", owner, epoch, tab.Epoch+1)
	}

	var nilView *ownView = compileView(nil, "a", nil)
	owned, epoch, owner = nilView.check(123)
	if owned || epoch != 0 || owner != "" {
		t.Fatalf("boot view check = (%v, %d, %q), want own nothing", owned, epoch, owner)
	}
}

// TestOwnershipCheckDoesNotAllocate is the alloc gate behind ownView's
// allocfree marker: the check sits inside the store's warm Select and
// Feedback paths, so it must not allocate.
func TestOwnershipCheckDoesNotAllocate(t *testing.T) {
	tab := mustTable(t, DefaultStripeBits, "a", "b", "c")
	v := compileView(tab, "a", nil)
	var sink bool
	if n := testing.AllocsPerRun(200, func() {
		for key := uint64(0); key < 64; key++ {
			owned, _, _ := v.check(key << 58)
			sink = owned
		}
	}); n != 0 {
		t.Fatalf("ownership check allocates %.1f times per run", n)
	}
	_ = sink
}

func TestFetchTableErrorsWithoutAPeer(t *testing.T) {
	if _, err := FetchTable("127.0.0.1:1", "test", time.Second); err == nil {
		t.Fatal("FetchTable to a dead address returned no error")
	}
}
