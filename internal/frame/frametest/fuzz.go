package frametest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// WriteCorpus regenerates the checked-in seed corpus of the fuzz target
// named target, under testdata/fuzz/<target> in the calling test's
// package, when UPDATE_FUZZ_CORPUS is set, and skips tb otherwise. Input
// i is written as seed-NN in the native go-fuzz corpus encoding, so
// `go test -fuzz` and plain `go test` both replay it. An input is the
// []byte of a one-argument target or a FuzzChaosFrame schedule.
func WriteCorpus[In []byte | ChaosSeed](tb testing.TB, target string, inputs []In) {
	tb.Helper()
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		tb.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate the seed corpora")
	}
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	for i, in := range inputs {
		body := "go test fuzz v1\n"
		switch in := any(in).(type) {
		case []byte:
			body += fmt.Sprintf("[]byte(%q)\n", in)
		case ChaosSeed:
			body += fmt.Sprintf("int64(%d)\nuint64(%d)\nuint64(%d)\nuint64(%d)\nuint64(%d)\n",
				in.Seed, in.MinGap, in.MaxGap, in.Corrupt, in.Cut)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// ChaosSeed is one input of a FuzzChaosFrame target, in its argument
// order: the chaos fault schedule its canonical frame stream is mangled
// under.
type ChaosSeed struct {
	Seed                         int64
	MinGap, MaxGap, Corrupt, Cut uint64
}

// ChaosFrameSeeds is the seed corpus of every FuzzChaosFrame target:
// schedules from "no fault lands" through "a fault on every byte".
func ChaosFrameSeeds() []ChaosSeed {
	return []ChaosSeed{
		{7, 64, 512, 3, 1},
		{1, 0, 0, 1, 0},       // default gaps, corruption only
		{2, 16, 64, 0, 1},     // early cuts
		{3, 1, 1, 1, 1},       // a fault on every byte past the first
		{4, 4096, 8192, 7, 7}, // gaps wider than most frames
	}
}

// Header renders the frame layer's 12-byte header for a payload of length
// n and checksum sum, with its own checksum valid, so a test input can
// carry exactly the framing fault it names.
func Header(n, sum uint32) []byte {
	h := binary.BigEndian.AppendUint32(nil, n)
	h = binary.BigEndian.AppendUint32(h, sum)
	return binary.BigEndian.AppendUint32(h, crc32.Checksum(h, crc32.MakeTable(crc32.Castagnoli)))
}

// Conn is an in-memory net.Conn over a fixed byte stream: reads come from
// R, writes go to W (or vanish when W is nil), and deadlines are accepted
// and ignored. It lets a test or a fuzz target drive a full connection
// loop without sockets.
type Conn struct {
	R io.Reader
	W io.Writer
}

func (c *Conn) Read(p []byte) (int, error) { return c.R.Read(p) }

func (c *Conn) Write(p []byte) (int, error) {
	if c.W == nil {
		return len(p), nil
	}
	return c.W.Write(p)
}

func (c *Conn) Close() error                     { return nil }
func (c *Conn) LocalAddr() net.Addr              { return addr{} }
func (c *Conn) RemoteAddr() net.Addr             { return addr{} }
func (c *Conn) SetDeadline(time.Time) error      { return nil }
func (c *Conn) SetReadDeadline(time.Time) error  { return nil }
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

type addr struct{}

func (addr) Network() string { return "fuzz" }
func (addr) String() string  { return "fuzz" }
