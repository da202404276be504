package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// WorkerOptions configures a worker daemon.
type WorkerOptions struct {
	// Workers bounds the parallelism each coordinator connection fans a
	// range across; 0 or less means GOMAXPROCS. Parallelism is a local
	// choice and never affects results (runner's determinism contract).
	Workers int
	// WriteTimeout bounds each outbound frame write (results, range-dones,
	// pongs): one times out no sooner than WriteTimeout after it starts,
	// and at most 1/16 later. 0 means frame.DefaultTimeout (2
	// minutes, the coordinator's frame-timeout default), negative
	// disables. It is the worker-side mirror of the coordinator's
	// per-frame write deadline: a coordinator that dies — or stalls —
	// without closing the connection stops draining, the TCP buffer
	// fills, and without a deadline the connection's writer, and the
	// frame loop waiting on it, would park forever, pinning the
	// connection's compiled engines and workspace pools with them.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives connection-level progress and failure
	// lines, one per range received.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, counts worker activity (sessions, engine
	// compiles, ranges, runs, wire traffic) — a NewWorkerMetrics set
	// registered on an obsv.Registry, shared by every session the daemon
	// serves.
	Metrics *WorkerMetrics
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// maxCachedEngines bounds how many compiled engines a worker connection
// keeps. The experiment suite's dominant pattern is many consecutive
// batches of the same few configs; keeping the most recent ones warm is
// what turns the compile into a once-per-config cost.
const maxCachedEngines = 8

// Serve accepts coordinator connections on ln until the listener is closed,
// handling each connection on its own goroutine and retrying transient
// accept failures (frame.Accept). It returns nil when ln closes. This is
// the body of cmd/shardd; tests drive it directly on loopback listeners.
func Serve(ln net.Listener, opts WorkerOptions) error {
	for {
		conn, err := frame.Accept(ln)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("cluster: accept: %w", err)
		}
		go func() {
			defer conn.Close()
			opts.logf("cluster: session from %s", conn.RemoteAddr())
			if err := serveConn(conn, opts); err != nil {
				opts.logf("cluster: connection from %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// cachedEngine is what compiling one config gave: its engine, or the
// error that refused it. The codec is canonical, so equal bytes are equal
// configs, which compile to interchangeable engines or fail alike.
type cachedEngine struct {
	config string
	pool   *enginePool // nil when the config was refused
	refuse string      // the compile error, when pool is nil
}

// engineCache is one connection's compile outcomes, least recently used
// first, at most maxCachedEngines of them. Ranges run one at a time per
// connection, so the running range's engine is always the most recent
// entry and is never evicted while it runs.
type engineCache []cachedEngine

// lookup returns the entry compiled from config and makes it the most
// recent, or reports false.
func (c engineCache) lookup(config []byte) (cachedEngine, bool) {
	for i := len(c) - 1; i >= 0; i-- {
		if e := c[i]; e.config == string(config) {
			copy(c[i:], c[i+1:])
			c[len(c)-1] = e
			return e, true
		}
	}
	return cachedEngine{}, false
}

// add records e, compiled from config, as the most recent entry and
// evicts the least recent beyond the cap.
func (c *engineCache) add(config []byte, e cachedEngine) {
	if len(*c) == maxCachedEngines {
		*c = append((*c)[:0], (*c)[1:]...)
	}
	e.config = string(config)
	*c = append(*c, e)
}

// writerQueue bounds how many frames serveConn may hand a connection's
// writer before it blocks: enough that a range's results stream while the
// next run computes, small enough that a coordinator which stopped
// draining stalls the computation within a few runs.
const writerQueue = 16

// connWriter owns the write half of one worker connection. serveConn hands
// it every outbound message (results, range-dones, pongs) in order; it encodes whatever is already queued into its outbox and sends
// it in one frame.Conn call — one deadline check, one flush — so run i's
// encode and syscall overlap run i+1's compute. Its first error closes the
// connection, which also ends serveConn's read, and is what serveConn
// returns.
type connWriter struct {
	fc   *frame.Conn
	q    chan message
	done chan struct{} // closed when the writer has exited
	err  error         // the write error it exited on; read after done
}

func startWriter(fc *frame.Conn) *connWriter {
	w := &connWriter{fc: fc, q: make(chan message, writerQueue), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *connWriter) loop() {
	defer close(w.done)
	var out outbox
	for m := range w.q {
		out.add(&m)
	drain:
		for out.len() < writerQueue {
			select {
			case m, ok := <-w.q:
				if !ok {
					break drain
				}
				out.add(&m)
			default:
				break drain
			}
		}
		if err := out.flush(w.fc); err != nil {
			w.err = err
			w.fc.Close()
			return
		}
	}
}

// send queues m for the wire, or returns the writer's error once it has
// failed.
func (w *connWriter) send(m message) error {
	select {
	case <-w.done:
		return w.err
	default:
	}
	select {
	case w.q <- m:
		return nil
	case <-w.done:
		return w.err
	}
}

// stop lets the writer send what is queued, waits for it to exit and
// returns its error. Only serveConn calls it, once.
func (w *connWriter) stop() error {
	close(w.q)
	<-w.done
	return w.err
}

// serveConn speaks one coordinator session: handshake, then a frame loop
// running each range it receives against the engine its config compiles
// to, until the coordinator closes the connection. Ranges execute strictly
// in arrival order — the ordering contract the coordinator's in-flight
// attribution relies on. Keepalive pings are answered in the same loop:
// while a range is executing the coordinator sees progress through the
// result stream instead. Every reply goes through the connection's writer,
// so replies reach the wire in the order this loop produced them;
// serveConn returns once the writer has exited, preferring the writer's
// error to its own.
func serveConn(conn net.Conn, opts WorkerOptions) error {
	// Writes carry a per-frame deadline: a coordinator that stopped
	// draining surfaces within the timeout instead of parking the writer
	// on a full TCP buffer for good. Reads never time out — the
	// coordinator may idle between batches for any length of time.
	fc := frame.NewConn(conn, 0, frame.Timeout(opts.WriteTimeout), false)
	m := opts.Metrics
	if m != nil {
		m.Sessions.Inc()
		fc.Instrument(m.FramesRead, m.BytesRead, m.FramesWritten, m.BytesWritten)
	}
	if _, err := fc.Accept(hello); err != nil {
		return err
	}
	w := startWriter(fc)
	err := serveFrames(conn, fc, w, opts)
	if werr := w.stop(); werr != nil {
		return werr
	}
	return err
}

// serveFrames is serveConn's frame loop; replies go to w.
func serveFrames(conn net.Conn, fc *frame.Conn, w *connWriter, opts WorkerOptions) error {
	m := opts.Metrics
	var (
		in      message // every frame decodes here
		engines engineCache
		exec    = newRangeExec(opts.Workers)
	)
	// emit streams the running range's results; built once per connection,
	// it reads the range's job id from in, which no frame overwrites while
	// the range runs.
	emit := func(run int, res *sim.Result) error {
		if m != nil {
			m.Runs.Inc()
		}
		// Each result is handed over as soon as it is merged, and the
		// writer sends every frame as soon as it drains, never holding one
		// back for the range's end: the coordinator's FrameTimeout is a
		// progress timeout, so every finished run must reach the wire
		// promptly — a slow chunk buffered until RangeDone would look like
		// a stalled worker.
		return w.send(message{tag: tagRunResult, result: runResultMsg{Job: in.rng.Job, Run: run, Res: res}})
	}
	for {
		if err := readMessage(fc, &in); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator finished and closed the session
			}
			return err
		}
		switch in.tag {
		case tagPing:
			if err := w.send(message{tag: tagPong, pong: pongMsg{Seq: in.ping.Seq}}); err != nil {
				return err
			}
			if m != nil {
				m.Pongs.Inc()
			}

		case tagRange:
			r := &in.rng
			// Overflow-safe bounds check: First+Count could wrap for a corrupt
			// frame with First near MaxInt, so compare against the remaining
			// headroom instead of the sum.
			if r.First < 0 || r.Count <= 0 || r.First > r.Runs || r.Count > r.Runs-r.First {
				return fmt.Errorf("protocol: range [first=%d, count=%d) outside batch of %d runs", r.First, r.Count, r.Runs)
			}
			// Checked here, not only in logf: boxing the five arguments
			// would cost an allocation per range with no logger set.
			if opts.Logf != nil {
				opts.Logf("cluster: %s: job %d: runs [%d,%d) of %d",
					conn.RemoteAddr(), r.Job, r.First, r.First+r.Count, r.Runs)
			}
			done := message{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: r.Job, First: r.First}}
			e, ok := engines.lookup(r.Config)
			if !ok {
				var cfg sim.Config
				if err := decodeConfig(r.Config, &cfg); err != nil {
					return fmt.Errorf("protocol: job %d config: %w", r.Job, err)
				}
				var err error
				if e.pool, err = compile(cfg); err != nil {
					e.refuse = err.Error()
					if m != nil {
						m.JobsRejected.Inc()
					}
				} else if m != nil {
					m.Jobs.Inc()
				}
				engines.add(r.Config, e)
			}
			if e.pool == nil {
				// The config is well-formed but cannot run; every worker
				// would say the same, so the job fails, not the session.
				done.rangeDone.Err = e.refuse
				if err := w.send(done); err != nil {
					return err
				}
				continue
			}
			var rangeStart time.Time
			if m != nil {
				m.Ranges.Inc()
				rangeStart = time.Now()
			}
			batch := runner.Replications{Runs: r.Runs, Seed: r.Seed, Stream: r.Stream}
			runErr := exec.run(e.pool, batch, r.First, r.Count, emit)
			if m != nil {
				m.RangeLatency.Observe(time.Since(rangeStart).Nanoseconds())
			}
			if runErr != nil {
				// Distinguish simulation errors (report to the coordinator, keep
				// serving) from transport errors (the connection is gone).
				var wErr *writeError
				if errors.As(runErr, &wErr) {
					return wErr.err
				}
				done.rangeDone.Err = runErr.Error()
			}
			if err := w.send(done); err != nil {
				return err
			}

		default:
			return errors.New("protocol: unexpected frame")
		}
	}
}

// writeError marks emit failures so rangeExec.run callers can tell "the
// simulation failed" from "the connection failed".
type writeError struct{ err error }

func (w *writeError) Error() string { return w.err.Error() }
func (w *writeError) Unwrap() error { return w.err }

// enginePool is one compiled engine plus its reusable workspaces — the
// config-dependent, seed-independent state that every range of the same
// config shares.
type enginePool struct {
	eng    *sim.Engine
	poolMu sync.Mutex
	pool   []*sim.Workspace // idle workspaces, reused across ranges and jobs
}

// compile builds the engine pool for cfg.
func compile(cfg sim.Config) (*enginePool, error) {
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &enginePool{eng: eng}, nil
}

// rangeExec executes contiguous run ranges, one at a time, each against
// the engine pool and seeding it is handed. It is the execution core
// shared by the worker daemon (one per connection) and the coordinator's
// in-process fallback (one per job). The running range's engine, seeding,
// bounds and sink live in its fields, where the lender, run and merge
// functions built once with it read them, so a range allocates none of
// them.
type rangeExec struct {
	workers int

	shared *enginePool                          // the running range's engine
	batch  runner.Replications                  // the running range's job seeding
	first  int                                  // the running range's first run
	emit   func(run int, res *sim.Result) error // the running range's sink
	lent   int                                  // workspaces lent for the running range (under shared.poolMu)

	newState func() *sim.Workspace
	do       func(ws *sim.Workspace, i int) (*sim.Result, error)
	merge    func(i int, res *sim.Result) error
}

// newRangeExec builds an executor fanning each range across at most
// workers goroutines (0 or less means GOMAXPROCS).
func newRangeExec(workers int) *rangeExec {
	x := &rangeExec{workers: runner.Workers(workers)}
	x.newState, x.do, x.merge = x.lend, x.runOne, x.mergeOne
	return x
}

// run executes the global run indices [first, first+count) of the batch
// against ep, calling emit in ascending run order from this goroutine
// (runner.MergeOrderedPooled's single-merger guarantee). Workspaces are
// drawn from ep's pool and returned afterwards, so steady-state ranges
// allocate no simulation state. An emit failure is returned wrapped in
// *writeError. Not safe for concurrent use: one range runs at a time.
func (x *rangeExec) run(ep *enginePool, batch runner.Replications, first, count int, emit func(run int, res *sim.Result) error) error {
	x.shared, x.batch, x.first, x.emit, x.lent = ep, batch, first, emit, 0
	defer func() { x.shared, x.batch.Stream, x.emit = nil, nil, nil }()
	return runner.MergeOrderedPooled(x.workers, count, x.newState, x.do, x.merge)
}

// lend hands a worker goroutine a pooled workspace. MergeOrderedPooled
// joins every worker before returning, so the pool is quiescent again
// afterwards; lent counts how many were taken, so concurrent calls never
// hand out one workspace twice.
func (x *rangeExec) lend() *sim.Workspace {
	ep := x.shared
	ep.poolMu.Lock()
	defer ep.poolMu.Unlock()
	if x.lent < len(ep.pool) {
		ws := ep.pool[x.lent]
		x.lent++
		return ws
	}
	ws := ep.eng.NewWorkspace()
	ep.pool = append(ep.pool, ws)
	x.lent++
	return ws
}

// runOne simulates the running range's ith run.
func (x *rangeExec) runOne(ws *sim.Workspace, i int) (*sim.Result, error) {
	return x.shared.eng.Run(ws, x.batch.SeedFor(x.first+i))
}

// mergeOne hands the running range's ith result to its sink.
func (x *rangeExec) mergeOne(i int, res *sim.Result) error {
	if err := x.emit(x.first+i, res); err != nil {
		return &writeError{err: err}
	}
	return nil
}
