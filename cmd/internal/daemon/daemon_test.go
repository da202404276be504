package daemon

import (
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"testing"

	"smartexp3/internal/serve"
)

// brokenListener fails every Accept for good.
type brokenListener struct {
	net.Listener
	err error
}

func (l brokenListener) Accept() (net.Conn, error) { return nil, l.err }

func open(t *testing.T, args ...string) (*Daemon, error) {
	t.Helper()
	fs := flag.NewFlagSet("testd", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(append([]string{"-quiet"}, args...)); err != nil {
		t.Fatal(err)
	}
	return f.Open(serve.Config{})
}

// TestOpenRefusesUnservableAlgorithms pins the shared flag checks: only
// the EXP3 family is servable, and a checkpoint interval needs a file.
func TestOpenRefusesUnservableAlgorithms(t *testing.T) {
	for _, name := range []string{"greedy", "centralized", "Smart"} {
		want := `unknown algorithm "` + name + `" (want exp3|block|hybrid|smartnr|smart)`
		if _, err := open(t, "-alg", name); err == nil || err.Error() != want {
			t.Errorf("Open(-alg %s) = %v, want %q", name, err, want)
		}
	}
	if _, err := open(t, "-snapshot-every", "1m"); err == nil || err.Error() != "-snapshot-every requires -snapshot" {
		t.Errorf("Open(-snapshot-every without -snapshot) = %v", err)
	}
	for _, name := range []string{"exp3", "block", "hybrid", "smartnr", "smart"} {
		if _, err := open(t, "-alg", name); err != nil {
			t.Errorf("Open(-alg %s) = %v", name, err)
		}
	}
}

// TestServeFlushesWhenAcceptFailsForGood pins the failure exit: an accept
// loop that cannot go on ends Serve with its error, and the store is
// still flushed to -snapshot first.
func TestServeFlushesWhenAcceptFailsForGood(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")
	d, err := open(t, "-snapshot", snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Store.Select(7, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("accept broke")
	if err := d.Serve(brokenListener{ln, broken}, Chore{}); !errors.Is(err, broken) {
		t.Fatalf("Serve = %v, want %v", err, broken)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no flush on a failed accept loop: %v", err)
	}
}
