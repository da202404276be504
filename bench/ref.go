package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// The reference op is a fixed piece of work with none of the repository's
// code on its path, timed alternately with a workload's ops in the same
// window. A host shared with other tenants (two vCPUs of an Intel Xeon,
// where the bounds were set) drifts in speed by 10-20% over minutes (their
// load, frequency, shared caches), and the drift moves the op and
// the reference alike; latency_p50_rel, the op's median over the
// reference's, cancels it. A change to the repository's code moves the op
// and leaves the reference alone.
//
// The serve workloads use a loopback TCP echo, the same kernel path,
// scheduler wake-ups and syscalls as a decision without the client, codec,
// server or store. sim-large uses a compute kernel on as many goroutines as
// it keeps busy. sim-batches uses a blend, the kernel on one goroutine and
// then a run of echoes: a batch there is little compute and many hand-offs
// between goroutines over loopback, so when the host slows, the batch
// slows more than compute alone does (see blendRef).
//
// Set-up is rescaled the same way. A serve set-up's decisions are
// interleaved with echoes as the window's are; a sim set-up is bracketed by
// reference ops. setup_s is the set-up time (without the echoes) multiplied
// by the reference's nominal duration over its mean duration around that
// set-up: the set-up time at the speed the nominal durations were recorded
// at. The mean, unlike the median, stretches as the set-up does when the
// host takes time from the process.

// Nominal reference durations: about their medians on the machine
// baseline.json was recorded on (two vCPUs of an Intel Xeon, Go 1.24).
const (
	echoNominal  = 12 * time.Microsecond
	kernelStepNs = 3.5 // per kernel step, with all goroutines running at once
)

// setupRefs is how many reference ops each side of a sim set-up takes.
const setupRefs = 5

// refOp is a sim workload's reference op.
type refOp interface {
	do()
	nominal() time.Duration
}

// echoBytes is the size of every message, about that of one Select frame.
const echoBytes = 32

// echoRef is a loopback TCP round trip: a dialed connection and the
// goroutine that answers each message with itself.
type echoRef struct {
	ln   net.Listener
	conn net.Conn
	buf  []byte
	done chan struct{}
}

func startEcho() (*echoRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoRef{ln: ln, buf: make([]byte, echoBytes), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, echoBytes)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if e.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

// do sends one message and reads its echo.
func (e *echoRef) do() error {
	if _, err := e.conn.Write(e.buf); err != nil {
		return err
	}
	_, err := io.ReadFull(e.conn, e.buf)
	return err
}

// close ends the connection and waits for the answering goroutine.
func (e *echoRef) close() {
	e.conn.Close()
	e.ln.Close()
	<-e.done
}

// kernelWords sizes each goroutine's table: 256 KB, beyond the first-level
// cache and within the second, like a simulation workspace.
const kernelWords = 1 << 16

// computeRef runs a fixed kernel on one goroutine per table, all at once.
type computeRef struct {
	tables [][]uint32
	steps  int
}

func newComputeRef(goroutines, steps int) *computeRef {
	c := &computeRef{steps: steps}
	for range goroutines {
		c.tables = append(c.tables, make([]uint32, kernelWords))
	}
	return c
}

// nominal is do's nominal duration.
func (c *computeRef) nominal() time.Duration {
	return time.Duration(float64(c.steps) * kernelStepNs)
}

// do runs the kernel once on every table and returns when all have finished.
func (c *computeRef) do() {
	var wg sync.WaitGroup
	for _, t := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(t, c.steps)
		}()
	}
	wg.Wait()
}

// blendRef runs a one-goroutine kernel and then echoes loopback round
// trips; the echoes take about three quarters of its time. Over twenty
// sim-batches runs on two shared vCPUs, whose raw batch medians spread 18%
// between quartiles, the ratio to this blend spread 2.2% and the ratio to
// the kernel alone 8.8%. In other such sets, kernels over 1-16 MB tables
// beat the kernel alone in one and lost in the next, and echoes alone did
// about as well as the blend or worse.
type blendRef struct {
	k      *computeRef
	e      *echoRef
	echoes int
	err    error // the first failed echo; later calls skip the echoes
}

func (b *blendRef) nominal() time.Duration {
	return b.k.nominal() + time.Duration(b.echoes)*echoNominal
}

func (b *blendRef) do() {
	b.k.do()
	for i := 0; i < b.echoes && b.err == nil; i++ {
		b.err = b.e.do()
	}
}

// kernel mixes a xorshift state into pseudo-random words of t. The table
// keeps every result, so the compiler cannot drop the loop.
func kernel(t []uint32, steps int) {
	x := uint64(0x9e3779b97f4a7c15)
	for range steps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i := x & (kernelWords - 1)
		t[i] = t[i]*31 + uint32(x>>32)
	}
}
