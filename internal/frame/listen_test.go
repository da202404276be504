package frame

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// scriptedListener answers Accept from a script of errors, then from the
// wrapped listener.
type scriptedListener struct {
	net.Listener
	errs []error
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, err
	}
	return l.Listener.Accept()
}

func acceptErr(errno syscall.Errno) error {
	return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
}

func loopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestAcceptRetriesTransientErrors pins the classification: resource
// shortages are slept through, anything else is returned at once.
func TestAcceptRetriesTransientErrors(t *testing.T) {
	ln := loopback(t)
	go func() {
		if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			defer c.Close()
			io.Copy(io.Discard, c)
		}
	}()
	sl := &scriptedListener{Listener: ln, errs: []error{acceptErr(syscall.EMFILE), acceptErr(syscall.ENFILE), acceptErr(syscall.ECONNABORTED)}}
	conn, err := Accept(sl)
	if err != nil {
		t.Fatalf("Accept through transient errors: %v", err)
	}
	conn.Close()

	for _, want := range []error{acceptErr(syscall.EINVAL), net.ErrClosed, errors.New("listener gone")} {
		sl := &scriptedListener{Listener: ln, errs: []error{want}}
		if _, err := Accept(sl); err != want {
			t.Errorf("Accept = %v, want %v returned at once", err, want)
		}
	}
}

// TestListenerCloseTearsDownAndDrains pins the shutdown pairing every
// daemon wire uses: closing the listener and then the Listener ends the
// live connections, and Serve returns only after their handlers have.
func TestListenerCloseTearsDownAndDrains(t *testing.T) {
	ln := loopback(t)
	var l Listener
	handled := make(chan struct{}, 2)
	served := make(chan error, 1)
	go func() {
		served <- l.Serve(ln, func(c net.Conn) error {
			c.Write([]byte{1})
			_, err := io.Copy(io.Discard, c) // until Close tears c down
			handled <- struct{}{}
			return err
		})
	}()
	for range 2 {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Read(make([]byte, 1)); err != nil { // the handler runs
			t.Fatal(err)
		}
	}
	ln.Close()
	l.Close()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve = %v, want net.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain after Close")
	}
	if len(handled) != 2 {
		t.Fatalf("%d handlers returned before Serve, want 2", len(handled))
	}
}
