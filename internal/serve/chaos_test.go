package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/chaos"
	"smartexp3/internal/obsv"
)

// learnedState encodes a store's snapshot with the Dropped counter zeroed:
// under chaos the served store legitimately drops resent duplicates (that
// is the slot dedup working), so the determinism claim is about everything
// else — device policy state, rng cursors, pending selections, slots.
func learnedState(t *testing.T, s *Store) []byte {
	t.Helper()
	sn := s.Snapshot()
	sn.Dropped = 0
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosClientOptions tunes the self-healing client for a fault-heavy test:
// fast retries, plenty of attempts, and a frame timeout short enough that
// a stalled proxy connection turns into a reconnect instead of a hang. A
// bit flipped in a length prefix leaves the reader waiting for bytes that
// never come, so every such fault costs one full frame timeout.
func chaosClientOptions() ClientOptions {
	return ClientOptions{
		FrameTimeout: 300 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		MaxAttempts:  20,
	}
}

// TestClientChaosSessionIsDecisionIdentical is the tentpole's acceptance
// criterion: a client session routed through a seeded chaos proxy —
// latency, corrupted frames, mid-stream cuts — must make byte-for-byte the
// same decisions as the same script against a clean in-process store, with
// at least one forced reconnect along the way, and leave the served store
// in a state byte-identical to the clean one (every resent feedback report
// applied exactly once). No goroutine may outlive the session.
func TestClientChaosSessionIsDecisionIdentical(t *testing.T) {
	const devices = 3
	const slots = 400
	for _, seed := range []int64{23, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			store, addr := startServer(t, Config{})
			baseline := runtime.NumGoroutine()
			proxy, err := chaos.NewProxy(addr, chaos.Faults{
				Seed:   seed,
				MinGap: 1024, MaxGap: 4096,
				Delay: 3, Corrupt: 2, Cut: 2,
				MaxDelay: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(proxy.Addr(), chaosClientOptions())
			if err != nil {
				t.Fatal(err)
			}

			clean := newTestStore(t, Config{})
			arms := []int{10, 20, 30}
			for slot := 0; slot < slots; slot++ {
				for dev := uint64(1); dev <= devices; dev++ {
					got, gotSlot, err := c.SelectSlot(dev, arms)
					if err != nil {
						t.Fatalf("slot %d device %d: %v", slot, dev, err)
					}
					want, sl, err := clean.Select(dev, arms)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("slot %d device %d: chaos session selected %d, clean store %d (after %d reconnects)",
							slot, dev, got, want, c.Reconnects())
					}
					r := reward(dev, got, slot)
					if err := c.FeedbackSlot(dev, got, gotSlot, r); err != nil {
						t.Fatal(err)
					}
					clean.Feedback(dev, want, sl, r)
				}
			}
			// Barrier: the Pong proves the daemon consumed every report.
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if c.Reconnects() == 0 {
				t.Fatal("chaos schedule never forced a reconnect; the test proved nothing")
			}
			if d := c.DroppedFeedback(); d != 0 {
				t.Fatalf("overload guard dropped %d reports in a session that never should have filled it", d)
			}
			// The stores must agree byte for byte: resends deduplicated by
			// slot, nothing lost, nothing double-applied.
			if !bytes.Equal(learnedState(t, store), learnedState(t, clean)) {
				t.Fatalf("served store diverged from the clean store after %d reconnects", c.Reconnects())
			}

			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := proxy.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// waitGoroutines polls until the goroutine count returns to the baseline
// taken before the session started, dumping stacks if it never does.
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

// TestClientSurvivesManualCut uses the proxy's kill switch instead of a
// schedule: sever every connection at a moment of the test's choosing and
// the very next Select must transparently reconnect and return the arm the
// store had already committed to.
func TestClientSurvivesManualCut(t *testing.T) {
	store, addr := startServer(t, Config{})
	proxy, err := chaos.NewProxy(addr, chaos.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c, err := Dial(proxy.Addr(), chaosClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	clean := newTestStore(t, Config{})
	arms := []int{1, 2, 3}
	for slot := 0; slot < 30; slot++ {
		if slot%10 == 5 {
			proxy.CutAll()
		}
		got, gotSlot, err := c.SelectSlot(7, arms)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		want, sl, err := clean.Select(7, arms)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("slot %d: selected %d after cut, clean store %d", slot, got, want)
		}
		r := reward(7, got, slot)
		if err := c.FeedbackSlot(7, got, gotSlot, r); err != nil {
			t.Fatal(err)
		}
		clean.Feedback(7, want, sl, r)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if c.Reconnects() < 3 {
		t.Fatalf("3 cuts forced only %d reconnects", c.Reconnects())
	}
	if !bytes.Equal(learnedState(t, store), learnedState(t, clean)) {
		t.Fatal("served store diverged from the clean store across manual cuts")
	}
}

// TestClientRedialsThroughOutageAndCloseIsIdempotent pins the one
// recovery path on a daemon that goes away for good: the dialer answers
// once and fails after that. An operation after the cut spends its
// MaxAttempts on redials and returns the "daemon unreachable" error, every
// failed redial is counted, a later call goes through the dialer again
// instead of latching the failure, the report buffered across the cut
// survives, and Close stays idempotent (nil) after it all.
func TestClientRedialsThroughOutageAndCloseIsIdempotent(t *testing.T) {
	store, err := NewStore(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{})
	var serverConn net.Conn
	done := make(chan struct{})
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials > 1 {
			return nil, errors.New("connection refused")
		}
		clientConn, sc := net.Pipe()
		serverConn = sc
		go func() { defer close(done); _ = srv.serveConn(sc) }()
		return clientConn, nil
	}
	const attempts = 3
	m := NewClientMetrics(obsv.NewRegistry())
	c, err := NewClient(dial, ClientOptions{
		FrameTimeout: -1,
		MaxAttempts:  attempts,
		BackoffBase:  time.Millisecond,
		BackoffMax:   time.Millisecond,
		Metrics:      m,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm, slot, err := c.SelectSlot(1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FeedbackSlot(1, arm, slot, 0.5); err != nil {
		t.Fatal(err)
	}

	// Kill the transport under the client; the daemon never comes back.
	serverConn.Close()
	<-done
	unreachable := fmt.Sprintf("daemon unreachable after %d attempts", attempts)
	if _, _, err := c.SelectSlot(1, []int{1, 2}); err == nil || !strings.Contains(err.Error(), unreachable) {
		t.Fatalf("Select across the outage: got %v, want %q", err, unreachable)
	}
	if r, d := m.Redials.Value(), dials; r != attempts-1 || d != attempts {
		t.Fatalf("after the cut: %d redials counted over %d dials, want %d over %d", r, d, attempts-1, attempts)
	}
	if _, _, err := c.SelectSlot(1, []int{1, 2}); err == nil || !strings.Contains(err.Error(), unreachable) {
		t.Fatalf("second Select across the outage: got %v, want %q", err, unreachable)
	}
	if r, d := m.Redials.Value(), dials; r != 2*attempts-1 || d != 2*attempts {
		t.Fatalf("a later call did not redial: %d redials counted over %d dials, want %d over %d", r, d, 2*attempts-1, 2*attempts)
	}
	if len(c.batch) != 1 || c.batch[0] != (FeedbackItem{Device: 1, Arm: arm, Slot: slot, Reward: 0.5}) {
		t.Fatalf("buffered feedback lost across the outage: %+v", c.batch)
	}
	if d := c.DroppedFeedback(); d != 0 {
		t.Fatalf("dropped %d reports under the buffer bound", d)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close after the outage: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("repeated Close must be nil, got %v", err)
	}
}
