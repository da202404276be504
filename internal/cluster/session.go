package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smartexp3/internal/frame"
	"smartexp3/internal/sim"
)

const (
	// pipelineDepth bounds how many ranges may be on the wire to one worker
	// at once. Depth ≥ 2 removes the request/response round trip from the
	// worker's critical path (the next range is already queued when the
	// current one finishes); more buys little and enlarges the forfeit when
	// a connection dies.
	pipelineDepth = 2
	// maxShardStrikes is how many consecutive connection failures without a
	// single delivered chunk retire a shard for the rest of the session. Any
	// delivered chunk resets the count, so a flaky-but-progressing worker is
	// kept (every reconnect still moves the batch forward), while a dead or
	// pathologically cut one stops burning redials.
	maxShardStrikes = 3
	// redialBackoff spaces reconnect attempts to a failed shard.
	redialBackoff = 100 * time.Millisecond
	// configSizeHint is the capacity a job's config encoding starts with:
	// enough for the paper's scenarios to encode in one allocation.
	configSizeHint = 512
)

// errSessionClosed fails the Runs still waiting on shards when Close is
// called.
var errSessionClosed = errors.New("cluster: session closed")

// Session is the coordinator: it dials each shard once, keeps the framed
// connections alive across batches (keepalive pings under the frame-timeout
// discipline), and multiplexes any number of jobs over them, each range
// carrying its session-unique job id, the job's seeding and its config.
// Run may be called concurrently — pipelined jobs interleave on the same
// connections without redials — and each Run drives its own job: it offers
// the job's chunks on the session's one work channel, which every shard
// connection reads, and folds the chunks that come back through merge in
// ascending global run order from the calling goroutine. The connections
// only move chunks between that channel and the wire; no state is shared
// across jobs. A session with no shards runs every job in-process,
// byte-identical to the sharded paths, which is the property the cluster
// tests pin; a caller with one batch simply opens a session, runs it and
// closes it.
//
// Worker failure (dial error, handshake refusal, connection loss) is not
// fatal: a lost connection hands its in-flight chunks back to their Runs,
// which offer them again before any fresh chunk; the shard is redialed
// (bounded by consecutive no-progress strikes), surviving shards take over
// its ranges, and once every shard has retired each Run finishes its
// remaining chunks in-process. Only a merge error or a deterministic job
// error reported by a worker (a config that cannot compile, a simulation
// failure — both would fail identically everywhere) aborts a job.
// Aggregates are byte-identical through all of it.
type Session struct {
	opts Options

	// work is the one channel chunks travel on from the Runs offering them
	// to the shard writers sending them. It is unbuffered, and Go serves
	// the senders blocked on a channel in arrival order, so jobs pipelined
	// side by side take turns and a long job cannot starve the ones beside
	// it.
	work      chan *chunk
	closed    chan struct{} // closed by Close
	gone      chan struct{} // closed when the last shard retires
	live      atomic.Int32  // shards not yet retired
	nextID    atomic.Uint64
	closeOnce sync.Once

	shards []*shard
	wg     sync.WaitGroup
}

// shard is one worker address and its current connection (if any).
type shard struct {
	addr string

	mu   sync.Mutex
	conn net.Conn // live connection, closed by Session.Close to interrupt
}

func (sh *shard) setConn(c net.Conn) {
	sh.mu.Lock()
	sh.conn = c
	sh.mu.Unlock()
}

func (sh *shard) closeConn() {
	sh.mu.Lock()
	if sh.conn != nil {
		sh.conn.Close()
	}
	sh.mu.Unlock()
}

// NewSession starts a persistent coordinator over the given shard
// addresses. Dialing happens in the background: a session is usable
// immediately, and shards that cannot be reached retire after their strike
// budget exactly like mid-session failures. With no addresses (or after
// every shard retires) jobs run in-process, byte-identical.
func NewSession(shards []string, opts Options) *Session {
	s := &Session{
		opts:   opts,
		work:   make(chan *chunk),
		closed: make(chan struct{}),
		gone:   make(chan struct{}),
	}
	s.live.Store(int32(len(shards)))
	if len(shards) == 0 {
		close(s.gone)
	}
	for _, addr := range shards {
		sh := &shard{addr: addr}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.shardLoop(sh)
			s.shardRetired()
		}()
	}
	return s
}

// Close retires the session: Runs still waiting on shards return
// errSessionClosed, the worker connections are torn down, and Close waits
// for every shard goroutine to exit. Close is idempotent. Jobs submitted
// after Close run in-process.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		for _, sh := range s.shards {
			sh.closeConn()
		}
		s.wg.Wait()
	})
	return nil
}

func (s *Session) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// shardRetired accounts for a shard goroutine ending. When the last one
// goes, every Run finishes its job in-process, so the session always
// completes its work: losing every worker degrades throughput, not
// correctness.
func (s *Session) shardRetired() {
	if s.live.Add(-1) > 0 {
		return
	}
	if !s.isClosed() {
		s.opts.logf("cluster: all shards gone, finishing the remaining runs in-process")
	}
	close(s.gone)
}

// job is what every range of one Run carries, and where its chunks come
// back.
type job struct {
	rng  rangeMsg    // the job's id, seeding and config; First and Count unset
	done chan *chunk // capacity: the claim window, so a hand-back never blocks
}

// chunk is one contiguous range of a job's runs. It has one owner at a
// time: the Run that allocated it, or the connection that took it from
// Session.work, until that connection hands it back on its job's done
// channel.
type chunk struct {
	job          *job
	first, count int

	// Set by the connection before it hands the chunk back.
	results []*sim.Result // every result of the range, at RangeDone
	err     error         // a deterministic job failure the worker reported
	lost    bool          // the connection ended before the range was done
	sentAt  time.Time     // dispatch instant, set only when the session is instrumented

	ready bool // Run's own mark: results are in and wait for the merge
}

// Run executes one job over the session and folds every result through
// merge in ascending global run order, from this goroutine. It is safe to
// call concurrently with other Runs — that is the pipelining path: many
// small batches stream over the same worker connections without a dial or
// handshake between them.
//
// Run offers its lost chunks first, then fresh ones while they are within
// the claim window of the merge frontier (capping the chunks out and the
// results held for reordering, the same memory argument as
// runner.MergeOrdered's window). Once every shard is gone it finishes the
// job in-process; if the session closes first, it returns errSessionClosed.
// A Run that starts after Close runs in-process.
func (s *Session) Run(spec JobSpec, merge func(run int, res *sim.Result) error) (err error) {
	if spec.Runs <= 0 {
		return nil
	}
	if m := s.opts.Metrics; m != nil {
		m.Jobs.Inc()
		defer func() {
			if err != nil {
				m.JobsFailed.Inc()
			}
		}()
	}
	shards := max(len(s.shards), 1)
	size := chunkSize(s.opts.ChunkSize, spec.Runs, shards)
	chunks := make([]chunk, (spec.Runs+size-1)/size)
	window := min(4*shards, len(chunks))
	j := &job{
		rng: rangeMsg{
			Job: s.nextID.Add(1), Runs: spec.Runs, Seed: spec.Seed, Stream: spec.Stream,
			Config: appendConfig(make([]byte, 0, configSizeHint), &spec.Config),
		},
		done: make(chan *chunk, window),
	}
	for i := range chunks {
		first := i * size
		chunks[i] = chunk{job: j, first: first, count: min(size, spec.Runs-first)}
	}
	if s.isClosed() {
		return s.runLocal(spec, chunks, merge)
	}

	var lost []*chunk
	fresh, next := 0, 0 // the next chunk to offer fresh, and to merge
	for next < len(chunks) {
		var offer chan *chunk
		var c *chunk
		if n := len(lost); n > 0 {
			offer, c = s.work, lost[n-1]
		} else if fresh < len(chunks) && fresh-next < window {
			offer, c = s.work, &chunks[fresh]
		}
		select {
		case offer <- c:
			if len(lost) > 0 {
				lost = lost[:len(lost)-1]
			} else {
				fresh++
			}
			continue
		case c = <-j.done:
			if err := s.receive(c, &lost); err != nil {
				return err
			}
		case <-s.closed:
			return errSessionClosed
		case <-s.gone:
			if s.isClosed() {
				return errSessionClosed
			}
			// Every connection has ended, so every chunk they held is
			// already back on done.
			for len(j.done) > 0 {
				if err := s.receive(<-j.done, &lost); err != nil {
					return err
				}
			}
			return s.runLocal(spec, chunks[next:], merge)
		}
		for ; next < len(chunks) && chunks[next].ready; next++ {
			if err := mergeChunk(&chunks[next], merge); err != nil {
				return err
			}
		}
	}
	return nil
}

// receive takes back a chunk a connection handed back: a lost one goes on
// the stack that is offered before fresh chunks, a failed one fails the
// job, and a done one is marked for the merge.
func (s *Session) receive(c *chunk, lost *[]*chunk) error {
	m := s.opts.Metrics
	switch {
	case c.lost:
		c.lost = false
		*lost = append(*lost, c)
		if m != nil {
			m.ChunksReassigned.Inc()
		}
	case c.err != nil:
		return c.err
	default:
		c.ready = true
		if m != nil {
			m.Chunks.Inc()
		}
	}
	return nil
}

// mergeChunk folds a chunk's results through merge and lets them go.
func mergeChunk(c *chunk, merge func(run int, res *sim.Result) error) error {
	for i, res := range c.results {
		if err := merge(c.first+i, res); err != nil {
			return fmt.Errorf("cluster: merge run %d: %w", c.first+i, err)
		}
	}
	c.results = nil
	return nil
}

// runLocal finishes a job in-process from its first unmerged chunk: the
// chunks not yet back from a worker run on one rangeExec, keeping their
// results as a connection would, and each is merged in turn.
func (s *Session) runLocal(spec JobSpec, chunks []chunk, merge func(run int, res *sim.Result) error) error {
	var ep *enginePool
	exec, batch := newRangeExec(s.opts.LocalWorkers), spec.batch()
	for i := range chunks {
		c := &chunks[i]
		if !c.ready {
			if ep == nil {
				var err error
				if ep, err = compile(spec.Config); err != nil {
					return err
				}
			}
			c.results = make([]*sim.Result, 0, c.count)
			err := exec.run(ep, batch, c.first, c.count, func(_ int, res *sim.Result) error {
				c.results = append(c.results, res)
				return nil
			})
			if err != nil {
				return err
			}
			if m := s.opts.Metrics; m != nil {
				m.Chunks.Inc()
			}
		}
		if err := mergeChunk(c, merge); err != nil {
			return err
		}
	}
	return nil
}

// shardLoop owns one worker address for the session's lifetime: dial, run a
// connection epoch until it fails, then redial. A failed dial and a lost
// connection are both strikes; consecutive strikes without a delivered
// chunk retire the shard, and any progress resets the count. A shard that
// never answered a dial at all retires on the first failure — redialing an
// address that was unreachable from the start mostly delays the in-process
// rescue, while an established worker that drops out earns the reconnect
// attempts.
func (s *Session) shardLoop(sh *shard) {
	strikes := 0
	everConnected := false
	for !s.isClosed() {
		conn, err := net.DialTimeout("tcp", sh.addr, frame.DialTimeout)
		if err != nil {
			s.opts.logf("cluster: shard %s: dial: %v", sh.addr, err)
			if !everConnected {
				return
			}
		} else {
			if everConnected {
				if m := s.opts.Metrics; m != nil {
					m.Reconnects.Inc()
				}
			}
			everConnected = true
			sh.setConn(conn)
			progressed, permanent, err := s.runConn(sh, conn)
			// Single close point for every connection this session dials: no
			// early-return path below runConn can leak the socket.
			conn.Close()
			sh.setConn(nil)
			if s.isClosed() || err == nil {
				return
			}
			if permanent {
				// A deterministic refusal (version mismatch, protocol breach
				// at handshake): redialing the same binary cannot end
				// differently.
				s.opts.logf("cluster: shard %s: retired: %v", sh.addr, err)
				return
			}
			s.opts.logf("cluster: shard %s: connection lost: %v", sh.addr, err)
			if progressed {
				strikes = 0
			}
		}
		if strikes++; strikes >= maxShardStrikes {
			return
		}
		time.Sleep(redialBackoff)
	}
}

// epoch is one connection's lifetime within a session: a writer (the shard
// goroutine) taking chunks from the session's work channel and dispatching
// them, a reader attributing the result stream to the in-flight FIFO and
// handing each chunk back to its job at RangeDone, and a keepalive ticker
// pinging through idle gaps. Workers execute ranges strictly in arrival
// order, so the FIFO head is always the range currently streaming back.
// Of the session, an epoch reads only the work and closed channels.
type epoch struct {
	s  *Session
	sh *shard

	fc  *frame.Conn // writes guarded by wmu; reads by the reader goroutine only
	wmu sync.Mutex  // serializes writer-loop and keepalive writes
	out outbox      // encode scratch, guarded by wmu

	// slots holds one token per range on the wire: the writer puts one in
	// before taking a chunk, the reader takes one out at RangeDone.
	slots chan struct{}
	dead  chan struct{} // closed by the first kill

	mu         sync.Mutex // guards the fields below
	err        error
	inflight   []*chunk
	pings      int // pings awaiting a pong
	lastWrite  time.Time
	progressed bool // at least one chunk delivered this epoch
}

// write sends m in one flushed frame under the connection's per-frame
// write deadline: a stalled peer surfaces within the frame timeout instead
// of blocking the session on a full TCP buffer.
func (e *epoch) write(m *message) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.out.add(m)
	if err := e.out.flush(e.fc); err != nil {
		return err
	}
	e.mu.Lock()
	e.lastWrite = time.Now()
	e.mu.Unlock()
	return nil
}

// refreshReadDeadlineLocked arms the progress timeout while a reply is owed
// (in-flight ranges or outstanding pings) and clears it otherwise. The
// clearing half is load-bearing: a deadline left armed on the shared
// connection would expire during an idle gap between batches, and the
// blocked reader would misattribute the next job's first frame — or a
// reassigned worker's — as a stall, killing a healthy connection. Callers
// hold e.mu, so the expectation check and the deadline write are atomic
// against concurrent dispatch.
func (e *epoch) refreshReadDeadlineLocked() {
	e.fc.ArmRead(len(e.inflight) > 0 || e.pings > 0)
}

// kill marks the epoch dead, which stops the writer, and closes the
// connection, which unblocks both loops.
func (e *epoch) kill(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		close(e.dead)
	}
	e.mu.Unlock()
	e.fc.Close()
}

// runConn speaks one connection epoch: handshake, then writer/reader/
// keepalive until the connection dies or the session closes. It reports
// whether any chunk was delivered (progress resets the strike count) and
// whether the failure is permanent for this shard.
func (s *Session) runConn(sh *shard, conn net.Conn) (progressed, permanent bool, err error) {
	e := &epoch{
		s:     s,
		sh:    sh,
		fc:    frame.NewConn(conn, 0, frame.Timeout(s.opts.FrameTimeout), false),
		slots: make(chan struct{}, pipelineDepth),
		dead:  make(chan struct{}),
	}
	if m := s.opts.Metrics; m != nil {
		e.fc.Instrument(m.FramesRead, m.BytesRead, m.FramesWritten, m.BytesWritten)
	}
	// Greet awaits the reply under the frame timeout, then leaves the read
	// deadline clear until the first dispatch or ping arms it again — the
	// session may sit between batches far longer than the frame timeout.
	if _, err := e.fc.Greet(hello); err != nil {
		// A refusal (version mismatch, another protocol) is deterministic:
		// redialing the same binary cannot end differently.
		return false, errors.Is(err, frame.ErrHandshake), err
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.readerLoop() }()
	go func() { defer wg.Done(); e.keepaliveLoop(done) }()
	e.writerLoop()
	close(done)
	conn.Close() // writer exited: release the reader whatever it is blocked on
	wg.Wait()

	// Hand back everything this connection still owed. That happens after
	// both loops exit, so no late delivery can race a re-execution, and it
	// never blocks: a job's done channel holds its whole claim window.
	e.mu.Lock()
	inflight := e.inflight
	e.inflight = nil
	connErr := e.err
	prog := e.progressed
	e.mu.Unlock()
	for _, c := range inflight {
		c.lost = true
		c.job.done <- c
	}
	if s.isClosed() {
		return prog, false, nil
	}
	if connErr == nil {
		connErr = errors.New("connection closed")
	}
	return prog, false, connErr
}

// writerLoop dispatches chunks as self-describing ranges, pipelined up to
// pipelineDepth: the worker always has the next range queued while
// streaming the current one. It takes a pipeline slot before it takes a
// chunk, so a chunk is never held by a connection that cannot send it.
func (e *epoch) writerLoop() {
	for {
		var c *chunk
		select {
		case e.slots <- struct{}{}:
		case <-e.dead:
			return
		case <-e.s.closed:
			return
		}
		select {
		case c = <-e.s.work:
		case <-e.dead:
			return
		case <-e.s.closed:
			return
		}
		if e.s.opts.Metrics != nil {
			c.sentAt = time.Now()
		}
		// Enter the FIFO before writing: if the write fails the chunk is
		// handed back by the epoch cleanup like any other in-flight range.
		e.mu.Lock()
		e.inflight = append(e.inflight, c)
		e.refreshReadDeadlineLocked()
		e.mu.Unlock()
		rng := c.job.rng
		rng.First, rng.Count = c.first, c.count
		if err := e.write(&message{tag: tagRange, rng: rng}); err != nil {
			e.kill(err)
			return
		}
	}
}

// keepaliveLoop pings through idle stretches so a silently dead connection
// (half-open partition, rebooted worker) is noticed between batches rather
// than at the next dispatch. Pings are only sent while nothing is in flight:
// during a range the result stream itself is the liveness signal.
func (e *epoch) keepaliveLoop(done chan struct{}) {
	interval := e.s.opts.keepalive()
	if interval <= 0 {
		return // deadlines disabled: a ping could never time out
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		e.mu.Lock()
		idle := len(e.inflight) == 0 && e.pings == 0 && time.Since(e.lastWrite) >= interval
		if idle {
			e.pings++
			e.refreshReadDeadlineLocked()
		}
		e.mu.Unlock()
		if !idle {
			continue
		}
		seq++
		if err := e.write(&message{tag: tagPing, ping: pingMsg{Seq: seq}}); err != nil {
			e.kill(err)
			return
		}
		if m := e.s.opts.Metrics; m != nil {
			m.Pings.Inc()
		}
	}
}

// readerLoop attributes the connection's inbound stream: results and range
// acknowledgements belong to the FIFO head (workers execute ranges in
// arrival order), pongs settle keepalives. Any protocol breach kills the
// epoch, leaving the head in the FIFO to be handed back with the rest.
func (e *epoch) readerLoop() {
	var cur []*sim.Result // results of the FIFO-head range
	var in message        // every frame decodes here
	for {
		if err := readMessage(e.fc, &in); err != nil {
			e.kill(err)
			return
		}
		switch in.tag {
		case tagPong:
			e.mu.Lock()
			if e.pings > 0 {
				e.pings--
			}
			e.refreshReadDeadlineLocked()
			e.mu.Unlock()

		case tagRunResult:
			e.mu.Lock()
			if len(e.inflight) == 0 {
				e.mu.Unlock()
				e.kill(errors.New("protocol: result with no range in flight"))
				return
			}
			head := e.inflight[0]
			e.refreshReadDeadlineLocked()
			e.mu.Unlock()
			want := head.first + len(cur)
			if in.result.Job != head.job.rng.Job || in.result.Run != want ||
				in.result.Res == nil || len(cur) >= head.count {
				e.kill(fmt.Errorf("protocol: unexpected result for job %d run %d (want job %d run %d of %d)",
					in.result.Job, in.result.Run, head.job.rng.Job, want, head.count))
				return
			}
			if cur == nil { // the range's first result: size for all of them
				cur = make([]*sim.Result, 0, head.count)
			}
			cur = append(cur, in.result.Res)

		case tagRangeDone:
			e.mu.Lock()
			if len(e.inflight) == 0 {
				e.mu.Unlock()
				e.kill(errors.New("protocol: range done with no range in flight"))
				return
			}
			head := e.inflight[0]
			if in.rangeDone.Job != head.job.rng.Job || in.rangeDone.First != head.first {
				e.mu.Unlock()
				e.kill(fmt.Errorf("protocol: range done for job %d first %d (want job %d first %d)",
					in.rangeDone.Job, in.rangeDone.First, head.job.rng.Job, head.first))
				return
			}
			failed := in.rangeDone.Err != ""
			if !failed && len(cur) != head.count {
				e.mu.Unlock()
				e.kill(fmt.Errorf("protocol: range done for %d with %d/%d results",
					head.first, len(cur), head.count))
				return
			}
			// Shift the queue down in place: re-slicing from the front
			// would leave append to reallocate once the tail reached cap.
			n := copy(e.inflight, e.inflight[1:])
			e.inflight[n] = nil
			e.inflight = e.inflight[:n]
			e.progressed = e.progressed || !failed
			e.refreshReadDeadlineLocked()
			e.mu.Unlock()
			<-e.slots
			if failed {
				// Deterministic job failure (the config does not compile or
				// the simulation failed): retrying elsewhere cannot help,
				// but the connection is healthy.
				head.err = fmt.Errorf("cluster: shard %s: run range [%d,%d): %s",
					e.sh.addr, head.first, head.first+head.count, in.rangeDone.Err)
			} else {
				head.results = cur
				if m := e.s.opts.Metrics; m != nil && !head.sentAt.IsZero() {
					m.DispatchLatency.Observe(time.Since(head.sentAt).Nanoseconds())
				}
			}
			cur = nil
			head.job.done <- head

		default:
			e.kill(errors.New("protocol: unexpected frame in session stream"))
			return
		}
	}
}
