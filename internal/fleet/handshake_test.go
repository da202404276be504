package fleet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/frame"
	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

// countingListener counts accepted connections, so a test can tell one
// refused dial from a client that keeps redialing.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestHandshakeAcrossProtocols dials each daemon — a shardd worker, a
// served daemon and a fleet peer's control listener — with the clients of
// the other two protocols. Every pairing must fail at the shared hello,
// with an error naming both protocols, and as a permanent refusal: the
// serve client does not redial, the cluster shard retires at once, and
// dialControl returns the error.
func TestHandshakeAcrossProtocols(t *testing.T) {
	daemons := map[string]func(net.Listener){
		"cluster": func(ln net.Listener) { cluster.Serve(ln, cluster.WorkerOptions{}) },
		"serve": func(ln net.Listener) {
			store, err := serve.NewStore(serve.Config{Seed: 1})
			if err != nil {
				t.Error(err)
				return
			}
			serve.NewServer(store, serve.ServerOptions{}).Serve(ln)
		},
		"fleet": func(ln net.Listener) {
			store, err := serve.NewStore(serve.Config{Seed: 1})
			if err != nil {
				t.Error(err)
				return
			}
			p, err := NewPeer(store, PeerOptions{ID: "p1"})
			if err != nil {
				t.Error(err)
				return
			}
			p.ServeControl(ln)
		},
	}
	clients := map[string]func(t *testing.T, addr string) error{
		"serve": func(t *testing.T, addr string) error {
			m := serve.NewClientMetrics(obsv.NewRegistry())
			c, err := serve.Dial(addr, serve.ClientOptions{Metrics: m, BackoffBase: time.Millisecond})
			if err == nil {
				c.Close()
				return errors.New("serve client accepted")
			}
			if !errors.Is(err, frame.ErrHandshake) {
				t.Errorf("serve client: %v is not a permanent handshake failure", err)
			}
			if m.Reconnects.Value() != 0 || m.Redials.Value() != 0 {
				t.Errorf("serve client redialed after a refusal: %d redials, %d reconnects",
					m.Redials.Value(), m.Reconnects.Value())
			}
			return err
		},
		"cluster": func(t *testing.T, addr string) error {
			var mu sync.Mutex
			var lines []string
			s := cluster.NewSession([]string{addr}, cluster.Options{Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				lines = append(lines, fmt.Sprintf(format, args...))
			}})
			defer s.Close()
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				mu.Lock()
				for _, l := range lines {
					if strings.Contains(l, "retired") {
						mu.Unlock()
						return errors.New(l)
					}
					if strings.Contains(l, "connection lost") {
						t.Errorf("cluster shard took the refusal for a transient failure: %s", l)
					}
				}
				mu.Unlock()
			}
			return errors.New("cluster shard never retired")
		},
		"fleet": func(t *testing.T, addr string) error {
			cc, err := dialControl(PeerInfo{Control: addr}, "coord", time.Second, nil, nil)
			if err == nil {
				cc.close()
				return errors.New("control dial accepted")
			}
			return err
		},
	}
	for daemon, serveFn := range daemons {
		for client, dial := range clients {
			if client == daemon {
				continue
			}
			t.Run(client+"-to-"+daemon, func(t *testing.T) {
				inner, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				ln := &countingListener{Listener: inner}
				done := make(chan struct{})
				go func() { defer close(done); serveFn(ln) }()
				defer func() { ln.Close(); <-done }()

				err = dial(t, ln.Addr().String())
				// The frame layer names a protocol with its version ("serve v5").
				msg := err.Error()
				if !strings.Contains(msg, client+" v") || !strings.Contains(msg, daemon+" v") {
					t.Fatalf("error does not name both protocols (%s, %s): %v", client, daemon, err)
				}
				if n := ln.accepts.Load(); n != 1 {
					t.Fatalf("%d connections for one refused handshake", n)
				}
			})
		}
	}
}
