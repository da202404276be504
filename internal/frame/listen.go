package frame

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// Backoff between retries of a transient accept failure, doubling per
// consecutive failure.
const (
	acceptMinBackoff = 5 * time.Millisecond
	acceptMaxBackoff = time.Second
)

// Accept waits for the next connection on ln. A failure that may clear by
// itself (out of file descriptors, buffers or memory, or an aborted
// connection) is slept through, so a client holding many sockets stalls
// new connections instead of ending the accept loop. Any other error,
// such as net.ErrClosed once ln is closed, is returned.
func Accept(ln net.Listener) (net.Conn, error) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		var errno syscall.Errno
		if err == nil || !errors.As(err, &errno) {
			return conn, err
		}
		switch errno {
		case syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM, syscall.ECONNABORTED:
			delay = min(max(2*delay, acceptMinBackoff), acceptMaxBackoff)
			time.Sleep(delay)
		default:
			return nil, err
		}
	}
}

// Listener is the accept loop serve.Server and fleet.Peer's control plane
// share: one goroutine per connection, the live ones tracked so Close can
// tear them down, and a drain before Serve returns. The zero value is
// ready to use.
type Listener struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve accepts connections on ln through Accept and runs handle on each
// from its own goroutine, closing the connection when handle returns;
// handle's error ends only its connection. When accepting fails for good
// (net.ErrClosed once ln is closed), Serve waits for every handler to
// return and returns that error.
func (l *Listener) Serve(ln net.Listener, handle func(net.Conn) error) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := Accept(ln)
		if err != nil {
			return err
		}
		l.mu.Lock()
		if l.conns == nil {
			l.conns = make(map[net.Conn]struct{})
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = handle(conn)
			conn.Close()
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Close tears down every live connection. Pair it with closing the
// listener; Serve's drain then returns promptly instead of waiting out
// frame timeouts.
func (l *Listener) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for conn := range l.conns {
		conn.Close()
	}
}
