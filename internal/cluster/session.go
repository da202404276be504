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

// errSessionClosed fails jobs still active when Close is called.
var errSessionClosed = errors.New("cluster: session closed")

// Session is the coordinator: it dials each shard once, keeps the framed
// connections alive across batches (keepalive pings under the frame-timeout
// discipline), and multiplexes any number of jobs over them, each range
// carrying its session-unique job id, the job's seeding and its config.
// Run may be called concurrently — pipelined jobs interleave on the same
// connections without redials — and each Run folds its own job's results
// through merge in ascending global run order from the calling goroutine.
// A session with no shards runs every job in-process, byte-identical to
// the sharded paths, which is the property the cluster tests pin; a
// caller with one batch simply opens a session, runs it and closes it.
//
// Worker failure (dial error, handshake refusal, connection loss) is not
// fatal: in-flight chunks of a lost connection are requeued, the shard is
// redialed (bounded by consecutive no-progress strikes), surviving shards
// take over its ranges, and if every shard retires the remaining chunks of
// every active job run in-process. Only a merge error or a deterministic
// job error reported by a worker (a config that cannot compile, a
// simulation failure — both would fail identically everywhere) aborts a
// job.
// Aggregates are byte-identical through all of it.
type Session struct {
	opts Options

	// mu guards the job list and all per-job claim/merge bookkeeping; cond
	// wakes shard writers (new work, reopened windows, requeues, drained
	// pipelines) and local rescuers. Lock order: Session.mu may be taken
	// before an epoch's mu, never after.
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*jobRun // active jobs in submission order
	nextID uint64
	live   int // shards not yet retired
	closed bool

	shards []*shard
	wg     sync.WaitGroup
}

// shard is one worker address and its current connection (if any).
type shard struct {
	addr  string
	index int

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
	s := &Session{opts: opts, live: len(shards)}
	s.cond = sync.NewCond(&s.mu)
	for i, addr := range shards {
		s.shards = append(s.shards, &shard{addr: addr, index: i})
	}
	// Spawn only after the shard slice is complete: shard writers read it
	// (affinity arithmetic) without holding any per-slice lock.
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.shardLoop(sh)
			s.shardRetired(sh)
		}()
	}
	return s
}

// Close retires the session: it fails any still-active jobs, tears down the
// worker connections and waits for every shard goroutine to exit. Close is
// idempotent. Jobs submitted after Close run in-process.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	jobs := append([]*jobRun(nil), s.jobs...)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range jobs {
		s.failJob(j, errSessionClosed)
	}
	for _, sh := range s.shards {
		sh.closeConn()
	}
	s.wg.Wait()
	return nil
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Session) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// jobRun is the coordinator-side state of one pipelined job: the chunk
// queue, the claim window and the delivery channel its merger drains. All
// claim/merge fields are guarded by Session.mu.
type jobRun struct {
	id     uint64
	spec   JobSpec
	config []byte // spec.Config in appendConfig's layout, which every range carries

	chunk   int
	nChunks int
	window  int

	// resCh carries completed chunks to the job's merger. Its capacity is
	// the claim window — the bound on claimed-but-unmerged chunks — so
	// deliveries never block a shard reader, even after the merger stopped
	// consuming (job failure).
	resCh chan chunkResult
	// failCh closes when the job fails, releasing the merger.
	failCh chan struct{}

	retry       []int // failed chunk indices, dispatched before fresh ones
	next        int   // next fresh chunk index
	frontier    int   // chunks fully merged
	failed      bool
	ended       bool // merger returned; claims, deliveries and requeues stop
	firstErr    error
	localActive bool
}

func (j *jobRun) bounds(idx int) (first, count int) {
	first = idx * j.chunk
	count = j.chunk
	if first+count > j.spec.Runs {
		count = j.spec.Runs - first
	}
	return first, count
}

// tryClaimLocked hands out the next chunk index: reassigned chunks first,
// then fresh ones while the merge frontier is within the window (capping the
// reorder buffer, the same memory argument as runner.MergeOrdered's window).
// Callers hold Session.mu.
func (j *jobRun) tryClaimLocked() (int, bool) {
	if j.failed || j.ended {
		return 0, false
	}
	if n := len(j.retry); n > 0 {
		idx := j.retry[n-1]
		j.retry = j.retry[:n-1]
		return idx, true
	}
	if j.next < j.nChunks && j.next-j.frontier < j.window {
		idx := j.next
		j.next++
		return idx, true
	}
	return 0, false
}

// Run executes one job over the session and folds every result through
// merge in ascending global run order, from this goroutine. It is safe to
// call concurrently with other Runs — that is the pipelining path: many
// small batches stream over the same worker connections without a dial or
// handshake between them.
func (s *Session) Run(job JobSpec, merge func(run int, res *sim.Result) error) error {
	if job.Runs <= 0 {
		return nil
	}
	j := s.register(job)
	defer s.unregister(j)

	// Single-goroutine ordered merger: chunks are folded in ascending chunk
	// index, runs in ascending order within each chunk — the exact order a
	// serial loop would produce.
	pending := make(map[int][]*sim.Result)
	mergeNext := 0
	for mergeNext < j.nChunks {
		var cr chunkResult
		select {
		case cr = <-j.resCh:
		case <-j.failCh:
			return s.jobErr(j)
		}
		pending[cr.idx] = cr.results
		for {
			results, ok := pending[mergeNext]
			if !ok {
				break
			}
			delete(pending, mergeNext)
			first := mergeNext * j.chunk
			for i, res := range results {
				if err := merge(first+i, res); err != nil {
					s.failJob(j, fmt.Errorf("cluster: merge run %d: %w", first+i, err))
					return s.jobErr(j)
				}
			}
			mergeNext++
			s.advance(j)
		}
	}
	return nil
}

func (s *Session) register(job JobSpec) *jobRun {
	config := appendConfig(make([]byte, 0, configSizeHint), &job.Config)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	nShards := len(s.shards)
	if nShards == 0 {
		nShards = 1
	}
	chunk := chunkSize(s.opts.ChunkSize, job.Runs, nShards)
	j := &jobRun{
		id:      s.nextID,
		spec:    job,
		config:  config,
		chunk:   chunk,
		nChunks: (job.Runs + chunk - 1) / chunk,
		window:  4 * nShards,
		failCh:  make(chan struct{}),
	}
	j.resCh = make(chan chunkResult, j.window)
	if m := s.opts.Metrics; m != nil {
		m.Jobs.Inc()
	}
	s.jobs = append(s.jobs, j)
	if s.live == 0 || s.closed {
		s.startLocalLocked(j)
	}
	s.cond.Broadcast()
	return j
}

func (s *Session) unregister(j *jobRun) {
	s.mu.Lock()
	j.ended = true
	for i, other := range s.jobs {
		if other == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	s.cond.Broadcast() // the job's rescuer, if any, may exit
	s.mu.Unlock()
}

func (s *Session) failJob(j *jobRun, err error) {
	s.mu.Lock()
	s.failJobLocked(j, err)
	s.mu.Unlock()
}

// failJobLocked is failJob for callers already holding Session.mu.
func (s *Session) failJobLocked(j *jobRun, err error) {
	if !j.failed {
		j.failed = true
		j.firstErr = err
		close(j.failCh)
		if m := s.opts.Metrics; m != nil {
			m.JobsFailed.Inc()
		}
	}
	s.cond.Broadcast()
}

func (s *Session) jobErr(j *jobRun) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.firstErr
}

// advance moves the job's merge frontier (called by its merger only).
func (s *Session) advance(j *jobRun) {
	s.mu.Lock()
	j.frontier++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// requeue returns a chunk whose connection died before delivering it.
func (s *Session) requeue(j *jobRun, idx int) {
	s.mu.Lock()
	if !j.ended && !j.failed {
		j.retry = append(j.retry, idx)
		if m := s.opts.Metrics; m != nil {
			m.ChunksReassigned.Inc()
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// deliver hands one completed chunk to the job's merger. The channel's
// capacity equals the claim window, which bounds undelivered claimed chunks,
// so the send never blocks a shard reader.
func (s *Session) deliver(j *jobRun, cr chunkResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Wake writers regardless of the drop below: the range just left its
	// connection's pipeline.
	s.cond.Broadcast()
	if j.ended || j.failed {
		return
	}
	select {
	case j.resCh <- cr:
		if m := s.opts.Metrics; m != nil {
			m.Chunks.Inc()
		}
	default:
		// Unreachable while the claim-window invariant holds; failing loudly
		// beats silently hanging the merger on a lost chunk.
		s.failJobLocked(j, fmt.Errorf("cluster: internal: chunk %d overflowed the delivery window", cr.idx))
	}
}

// tryClaimShardLocked finds a chunk for the shard at index, preferring jobs
// whose Affinity maps to it (whole experiments stick to "their" worker when
// reproduce -parexp pipelines several at once) and stealing from any other
// job otherwise, so no shard idles while work exists.
func (s *Session) tryClaimShardLocked(shardIdx int) (*jobRun, int, bool) {
	n := len(s.shards)
	for pass := 0; pass < 2; pass++ {
		for _, j := range s.jobs {
			if pass == 0 && (j.spec.Affinity <= 0 || (j.spec.Affinity-1)%n != shardIdx) {
				continue
			}
			if idx, ok := j.tryClaimLocked(); ok {
				return j, idx, true
			}
		}
	}
	return nil, 0, false
}

// startLocalLocked spawns the in-process rescuer for one job. Callers hold
// Session.mu. The rescuer is deliberately not tracked by s.wg: it can be
// spawned from Run after Close has begun waiting, and Add-from-zero
// concurrent with Wait is a WaitGroup contract violation. It needs no
// waiting either — it touches only its job's state and exits as soon as
// the job ends or fails (claimLocal), both of which Close forces.
func (s *Session) startLocalLocked(j *jobRun) {
	if j.localActive || j.failed || j.ended {
		return
	}
	j.localActive = true
	go s.runLocal(j)
}

// shardRetired accounts for a shard goroutine ending. When the last one
// goes, in-process rescuers take over every active job so the session always
// completes its work: losing every worker degrades throughput, not
// correctness.
func (s *Session) shardRetired(sh *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live--
	if s.live > 0 || s.closed {
		return
	}
	if len(s.jobs) > 0 {
		s.opts.logf("cluster: all shards gone, finishing the remaining runs in-process")
	}
	for _, j := range s.jobs {
		s.startLocalLocked(j)
	}
}

// runLocal drains one job's chunk queue in-process.
func (s *Session) runLocal(j *jobRun) {
	ep, err := compile(j.spec.Config)
	if err != nil {
		s.failJob(j, err)
		return
	}
	exec, batch := newRangeExec(s.opts.LocalWorkers), j.spec.batch()
	for {
		idx, ok := s.claimLocal(j)
		if !ok {
			return
		}
		first, count := j.bounds(idx)
		results := make([]*sim.Result, 0, count)
		err := exec.run(ep, batch, first, count, func(run int, res *sim.Result) error {
			results = append(results, res)
			return nil
		})
		if err != nil {
			s.failJob(j, err)
			return
		}
		s.deliver(j, chunkResult{idx: idx, results: results})
	}
}

// claimLocal blocks until the job has a claimable chunk, is fully merged, or
// fails.
func (s *Session) claimLocal(j *jobRun) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j.failed || j.ended {
			return 0, false
		}
		if idx, ok := j.tryClaimLocked(); ok {
			return idx, true
		}
		if j.frontier >= j.nChunks {
			return 0, false
		}
		s.cond.Wait()
	}
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

// inflightChunk is one range on the wire, awaiting its result stream.
type inflightChunk struct {
	j      *jobRun
	idx    int
	first  int
	count  int
	sentAt time.Time // dispatch instant, set only when the session is instrumented
}

// epoch is one connection's lifetime within a session: a writer (the shard
// goroutine) claiming and dispatching chunks, a reader attributing the
// result stream to the in-flight FIFO, and a keepalive ticker pinging
// through idle gaps. Workers execute ranges strictly in arrival order, so
// the FIFO head is always the range currently streaming back.
type epoch struct {
	s  *Session
	sh *shard

	fc  *frame.Conn // writes guarded by wmu; reads by the reader goroutine only
	wmu sync.Mutex  // serializes writer-loop and keepalive writes
	out outbox      // encode scratch, guarded by wmu

	dead atomic.Bool

	mu         sync.Mutex // guards the fields below; see Session.mu for order
	err        error
	inflight   []inflightChunk
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

// kill marks the epoch dead, closes the connection (unblocking both loops)
// and wakes the writer if it is parked on the session's work queue.
func (e *epoch) kill(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.dead.Store(true)
	e.fc.Close()
	e.s.wake()
}

// runConn speaks one connection epoch: handshake, then writer/reader/
// keepalive until the connection dies or the session closes. It reports
// whether any chunk was delivered (progress resets the strike count) and
// whether the failure is permanent for this shard.
func (s *Session) runConn(sh *shard, conn net.Conn) (progressed, permanent bool, err error) {
	e := &epoch{
		s:  s,
		sh: sh,
		fc: frame.NewConn(conn, 0, frame.Timeout(s.opts.FrameTimeout), false),
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

	// Reassign everything this connection still owed. Requeue happens after
	// both loops exit, so no late delivery can race a re-execution.
	e.mu.Lock()
	inflight := e.inflight
	e.inflight = nil
	connErr := e.err
	prog := e.progressed
	e.mu.Unlock()
	for _, c := range inflight {
		s.requeue(c.j, c.idx)
	}
	if s.isClosed() {
		return prog, false, nil
	}
	if connErr == nil {
		connErr = errors.New("connection closed")
	}
	return prog, false, connErr
}

// writerWait parks the shard until it has something to do: a claimable
// chunk while fewer than pipelineDepth ranges are in flight, epoch death
// or session close; it returns false for the last two. Every pop from the
// in-flight FIFO is followed by a broadcast of the session cond (deliver,
// failJob, kill), so a full pipeline never parks the writer for good.
func (e *epoch) writerWait() (*jobRun, int, bool) {
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || e.dead.Load() {
			return nil, 0, false
		}
		e.mu.Lock()
		full := len(e.inflight) >= pipelineDepth
		e.mu.Unlock()
		if !full {
			if j, idx, ok := s.tryClaimShardLocked(e.sh.index); ok {
				return j, idx, true
			}
		}
		s.cond.Wait()
	}
}

// writerLoop claims chunks and dispatches each as one self-describing
// range. Ranges are pipelined up to pipelineDepth: the worker always has
// the next range queued while streaming the current one.
func (e *epoch) writerLoop() {
	for {
		j, idx, ok := e.writerWait()
		if !ok {
			return
		}
		first, count := j.bounds(idx)
		// Enter the FIFO before writing: if the write fails the chunk is
		// requeued by the epoch cleanup like any other in-flight range.
		c := inflightChunk{j: j, idx: idx, first: first, count: count}
		if e.s.opts.Metrics != nil {
			c.sentAt = time.Now()
		}
		e.mu.Lock()
		e.inflight = append(e.inflight, c)
		e.refreshReadDeadlineLocked()
		e.mu.Unlock()
		if err := e.write(&message{tag: tagRange, rng: rangeMsg{
			Job: j.id, First: first, Count: count,
			Runs: j.spec.Runs, Seed: j.spec.Seed, Stream: j.spec.Stream, Config: j.config,
		}}); err != nil {
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
// epoch — reassignment handles the rest.
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
			if in.result.Job != head.j.id || in.result.Run != want ||
				in.result.Res == nil || len(cur) >= head.count {
				e.kill(fmt.Errorf("protocol: unexpected result for job %d run %d (want job %d run %d of %d)",
					in.result.Job, in.result.Run, head.j.id, want, head.count))
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
			if in.rangeDone.Job != head.j.id || in.rangeDone.First != head.first {
				e.mu.Unlock()
				e.kill(fmt.Errorf("protocol: range done for job %d first %d (want job %d first %d)",
					in.rangeDone.Job, in.rangeDone.First, head.j.id, head.first))
				return
			}
			// Shift the queue down in place: re-slicing from the front
			// would leave append to reallocate once the tail reached cap.
			n := copy(e.inflight, e.inflight[1:])
			e.inflight[n] = inflightChunk{}
			e.inflight = e.inflight[:n]
			e.refreshReadDeadlineLocked()
			e.mu.Unlock()
			if in.rangeDone.Err != "" {
				// Deterministic job failure (the config does not compile or
				// the simulation failed): retrying elsewhere cannot help,
				// but the connection is healthy.
				e.s.failJob(head.j, fmt.Errorf("cluster: shard %s: run range [%d,%d): %s",
					e.sh.addr, head.first, head.first+head.count, in.rangeDone.Err))
				e.s.wake()
				cur = nil
				continue
			}
			if len(cur) != head.count {
				e.kill(fmt.Errorf("protocol: range done for %d with %d/%d results",
					head.first, len(cur), head.count))
				return
			}
			e.mu.Lock()
			e.progressed = true
			e.mu.Unlock()
			if m := e.s.opts.Metrics; m != nil && !head.sentAt.IsZero() {
				m.DispatchLatency.Observe(time.Since(head.sentAt).Nanoseconds())
			}
			e.s.deliver(head.j, chunkResult{idx: head.idx, results: cur})
			cur = nil

		default:
			e.kill(errors.New("protocol: unexpected frame in session stream"))
			return
		}
	}
}
