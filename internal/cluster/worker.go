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
	// WriteTimeout bounds each outbound frame write (result streaming,
	// acks, pongs): one times out no sooner than WriteTimeout after it
	// starts, and at most 1/16 later. 0 means frame.DefaultTimeout (2
	// minutes, the coordinator's frame-timeout default), negative
	// disables. It is the worker-side mirror of the coordinator's
	// per-frame write deadline: a coordinator that dies — or stalls —
	// without closing the connection stops draining, the TCP buffer
	// fills, and without a deadline the connection's writer, and the
	// frame loop waiting on it, would park forever, pinning the session's
	// compiled engines and workspace pools with them.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives connection-level progress and failure
	// lines.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, counts worker activity (sessions, jobs,
	// ranges, runs, wire traffic) — a NewWorkerMetrics set registered on
	// an obsv.Registry, shared by every session the daemon serves.
	Metrics *WorkerMetrics
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// maxIdleEngines bounds how many compiled engines with no live job a worker
// session keeps warm. The experiment suite's dominant pattern is many
// consecutive batches of the same few configs, each batch released before
// the next arrives — retention across the ref-count's zero crossings is
// what turns the compile into a once-per-config cost.
const maxIdleEngines = 8

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

// workerJob is one job held by a session. A job whose descriptor failed to
// compile is kept with its error so pipelined ranges that were already on
// the wire when the rejection went out are answered with a deterministic
// range error instead of a protocol violation.
type workerJob struct {
	exec       *rangeExec
	compileErr string
}

// workerSession is the per-connection state: the live jobs and the engine
// cache they draw from. Engines (and their workspace pools) are shared by
// every job whose config arrived as the same bytes, and survive brief
// idle spells between jobs (maxIdleEngines), so a session streaming batches
// of the same scenario compiles it exactly once.
type workerSession struct {
	workers int
	jobs    map[uint64]*workerJob
	engines map[string]*enginePool
	jobKeys map[uint64]string
	idle    []string // keys whose refs hit zero, oldest first (lazily pruned)
}

// addJob compiles (or reuses) the engine for one job descriptor and
// registers it. config is the descriptor's encoded config as it arrived:
// the codec is canonical, so equal bytes are equal configs, which compile to
// interchangeable engines. It returns the compile error to acknowledge,
// if any.
func (ws *workerSession) addJob(id uint64, spec JobSpec, config []byte) string {
	wj := &workerJob{}
	exec, err := newRangeExec(spec, ws.workers, ws.engines[string(config)])
	if err != nil {
		wj.compileErr = err.Error()
	} else {
		key := string(config)
		ws.engines[key] = exec.shared
		exec.shared.refs++
		ws.jobKeys[id] = key
		wj.exec = exec
	}
	ws.jobs[id] = wj
	return wj.compileErr
}

// releaseJob drops a job id. Its engine stays cached while other jobs use
// it, and lingers in the idle list afterwards until capacity evicts it.
func (ws *workerSession) releaseJob(id uint64) {
	if key, ok := ws.jobKeys[id]; ok {
		delete(ws.jobKeys, id)
		if ep := ws.engines[key]; ep != nil {
			if ep.refs--; ep.refs <= 0 {
				ws.noteIdle(key)
			}
		}
	}
	delete(ws.jobs, id)
}

// noteIdle records that key's engine has no live job and evicts the oldest
// idle engines beyond the retention cap. The list holds distinct,
// genuinely idle keys (oldest first): a key is de-duplicated on every
// re-idle and entries re-adopted since they were logged are dropped, so a
// single hot engine released once per batch occupies exactly one retention
// slot forever instead of accumulating phantom entries that would evict it.
func (ws *workerSession) noteIdle(key string) {
	kept := ws.idle[:0]
	for _, k := range ws.idle {
		if ep := ws.engines[k]; k != key && ep != nil && ep.refs <= 0 {
			kept = append(kept, k)
		}
	}
	ws.idle = append(kept, key)
	for len(ws.idle) > maxIdleEngines {
		delete(ws.engines, ws.idle[0])
		ws.idle = ws.idle[1:]
	}
}

// writerQueue bounds how many frames serveConn may hand a connection's
// writer before it blocks: enough that a range's results stream while the
// next run computes, small enough that a coordinator which stopped
// draining stalls the computation within a few runs.
const writerQueue = 16

// connWriter owns the write half of one worker connection. serveConn hands
// it every outbound message (results, range-dones, job acks, pongs) in
// order; it encodes whatever is already queued into its outbox and sends
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
// multiplexing any number of jobs (by id) and their ranges until the
// coordinator closes the connection. Ranges execute strictly in arrival
// order — the ordering contract the coordinator's in-flight attribution
// relies on. Keepalive pings are answered in the same loop: while a range is
// executing the coordinator sees progress through the result stream instead.
// Every reply goes through the connection's writer, so replies reach the
// wire in the order this loop produced them; serveConn returns once the
// writer has exited, preferring the writer's error to its own.
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
	ws := &workerSession{
		workers: opts.Workers,
		jobs:    make(map[uint64]*workerJob),
		engines: make(map[string]*enginePool),
		jobKeys: make(map[uint64]string),
	}
	var in message // every frame decodes here
	// emit streams the running range's results; built once per connection,
	// it reads the range's job from rangeJob.
	var rangeJob uint64
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
		return w.send(message{tag: tagRunResult, result: runResultMsg{Job: rangeJob, Run: run, Res: res}})
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

		case tagJob:
			id, spec := in.job.ID, in.job.Spec
			if _, dup := ws.jobs[id]; dup {
				return fmt.Errorf("protocol: duplicate job id %d", id)
			}
			compileErr := ws.addJob(id, *spec, in.job.config)
			if m != nil {
				if compileErr == "" {
					m.Jobs.Inc()
				} else {
					m.JobsRejected.Inc()
				}
			}
			if err := w.send(message{tag: tagJobAck, jobAck: jobAckMsg{ID: id, Err: compileErr}}); err != nil {
				return err
			}
			// Checked here, not only in logf: boxing the five arguments
			// would cost an allocation per job with no logger set.
			if compileErr == "" && opts.Logf != nil {
				opts.Logf("cluster: %s: job %d accepted (%d devices, %d slots, %d runs)",
					conn.RemoteAddr(), id, len(spec.Config.Devices), spec.Config.Slots, spec.Runs)
			}

		case tagJobRelease:
			ws.releaseJob(in.jobRelease.ID)

		case tagRange:
			r := in.rng
			wj, ok := ws.jobs[r.Job]
			if !ok {
				return fmt.Errorf("protocol: range for unknown job %d", r.Job)
			}
			if wj.compileErr != "" {
				// The job never compiled; the coordinator learned that from
				// the job ack, but ranges pipelined before the ack arrived
				// still deserve a deterministic answer.
				if err := w.send(message{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: r.Job, First: r.First, Err: wj.compileErr}}); err != nil {
					return err
				}
				continue
			}
			// Overflow-safe bounds check: First+Count could wrap for a corrupt
			// frame with First near MaxInt, so compare against the remaining
			// headroom instead of the sum.
			if r.First < 0 || r.Count <= 0 || r.First > wj.exec.job.Runs || r.Count > wj.exec.job.Runs-r.First {
				return fmt.Errorf("protocol: range [first=%d, count=%d) outside batch of %d runs", r.First, r.Count, wj.exec.job.Runs)
			}
			var rangeStart time.Time
			if m != nil {
				m.Ranges.Inc()
				rangeStart = time.Now()
			}
			rangeJob = r.Job
			runErr := wj.exec.run(r.First, r.Count, emit)
			if m != nil {
				m.RangeLatency.Observe(time.Since(rangeStart).Nanoseconds())
			}
			done := message{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: r.Job, First: r.First}}
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
// config-dependent, seed-independent state that jobs of the same
// config bytes share.
type enginePool struct {
	eng    *sim.Engine
	refs   int // live jobs drawing from this pool (session loop only)
	poolMu sync.Mutex
	pool   []*sim.Workspace // idle workspaces, reused across ranges and jobs
}

// rangeExec executes contiguous run ranges of one job: per-job seeding
// (batch) over a possibly shared enginePool. It is the execution core
// shared by the worker daemon and the coordinator's in-process fallback.
// It runs one range at a time: the range's bounds and sink live in its
// fields, where the lender, run and merge functions built once with it
// read them, so a range allocates none of them.
type rangeExec struct {
	job     JobSpec
	batch   runner.Replications
	workers int
	shared  *enginePool

	first int                                  // the running range's first run
	emit  func(run int, res *sim.Result) error // the running range's sink
	lent  int                                  // workspaces lent for the running range (under shared.poolMu)

	newState func() *sim.Workspace
	do       func(ws *sim.Workspace, i int) (*sim.Result, error)
	merge    func(i int, res *sim.Result) error
}

// newRangeExec builds the executor for one job, compiling the config only
// when no shared pool is supplied.
func newRangeExec(job JobSpec, workers int, shared *enginePool) (*rangeExec, error) {
	if shared == nil {
		eng, err := sim.NewEngine(job.Config)
		if err != nil {
			return nil, err
		}
		shared = &enginePool{eng: eng}
	}
	x := &rangeExec{
		job:     job,
		batch:   job.batch(),
		workers: runner.Workers(workers),
		shared:  shared,
	}
	x.newState, x.do, x.merge = x.lend, x.runOne, x.mergeOne
	return x, nil
}

// run executes the global run indices [first, first+count), calling emit in
// ascending run order from this goroutine (runner.MergeOrderedPooled's
// single-merger guarantee). Workspaces are drawn from the shared pool and
// returned afterwards, so steady-state ranges allocate no simulation state.
// An emit failure is returned wrapped in *writeError. Not safe for
// concurrent use: one range runs at a time.
func (x *rangeExec) run(first, count int, emit func(run int, res *sim.Result) error) error {
	x.first, x.emit, x.lent = first, emit, 0
	defer func() { x.emit = nil }()
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
