package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/obsv"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/runner"
	"smartexp3/internal/sim"
)

// The simulation configurations are fixed; the seed picks the batch seeds.
const (
	largeRuns    = 16 // replications per sim-large batch
	largeWorkers = 2
	smallRuns    = 8 // replications per sim-batches batch
	checkBatches = 3 // sim-batches batches compared with sim.Replicate
	warmBatches  = 8 // sim-batches batches each set-up runs through its session
	// overheadPairs is how many session/in-process batch pairs the traced
	// sim-batches run alternates after its window.
	overheadPairs = 200
	// The reference ops (ref.go): on sim-large a compute kernel on both
	// workers' goroutines after every batch (~300 ms); on sim-batches a
	// kernel and smallRefEchoes loopback echoes after every smallRefEvery-th
	// batch (~1.5 ms). Each takes a few percent of the window.
	largeRefSteps  = 1 << 20
	smallRefSteps  = 1 << 15
	smallRefEchoes = 32
	smallRefEvery  = 8
)

// setupRef returns the mean of setupRefs runs of ref. A set-up is
// bracketed by two of these, and its reference is their mean.
func setupRef(ref refOp) time.Duration {
	t0 := time.Now()
	for range setupRefs {
		ref.do()
	}
	return time.Since(t0) / setupRefs
}

// timeRef runs ref and records it in w unless w is nil.
func timeRef(ref refOp, w *window) {
	t0 := time.Now()
	ref.do()
	if w != nil {
		done := time.Now()
		w.recordRef(done, done.Sub(t0))
	}
}

func largeConfig() sim.Config {
	topo := netmodel.Large()
	return sim.Config{Topology: topo, Devices: sim.SpreadDevices(500, core.AlgSmartEXP3, len(topo.Areas)), Slots: 200}
}

// smallConfig is the 5-device, 120-slot Setting 1 run of the runner
// microbenchmark.
func smallConfig() sim.Config {
	return sim.Config{Topology: netmodel.Setting1(), Devices: sim.UniformDevices(5, core.AlgSmartEXP3), Slots: 120}
}

// deviceSlots is how many decisions one replication of cfg makes: every
// device of these configurations is present in every slot.
func deviceSlots(cfg sim.Config) int64 { return int64(len(cfg.Devices) * cfg.Slots) }

// aggregate is a batch's merged output, folded in the order the merge
// delivers runs.
type aggregate struct {
	download float64
	switches int
	next     int
}

func (a *aggregate) fold(run int, res *sim.Result) error {
	if run != a.next {
		return fmt.Errorf("merge delivered run %d, want %d", run, a.next)
	}
	a.next++
	for d := range res.Devices {
		a.download += res.Devices[d].DownloadMb
		a.switches += res.Devices[d].Switches
	}
	return nil
}

func (a aggregate) equal(b aggregate) bool {
	return math.Float64bits(a.download) == math.Float64bits(b.download) && a.switches == b.switches && a.next == b.next
}

// reference folds a batch through in-process sim.Replicate with one worker.
func reference(batch runner.Replications, cfg sim.Config) (aggregate, error) {
	batch.Workers = 1
	var agg aggregate
	err := sim.Replicate(batch, cfg, agg.fold)
	return agg, err
}

// pooledBatch runs batches through runner.MergePooled on one compiled engine,
// handing its workers workspaces kept across batches.
type pooledBatch struct {
	eng       *sim.Engine
	mu        sync.Mutex
	free      []*sim.Workspace
	tr        *tracer
	busy      atomic.Int64 // Engine.Run nanoseconds
	mergeWait *latHist     // run return to its merge callback
}

func newPooledBatch(cfg sim.Config, workers int) (*pooledBatch, time.Duration, error) {
	t0 := time.Now()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, 0, err
	}
	compile := time.Since(t0)
	p := &pooledBatch{eng: eng, mergeWait: new(latHist)}
	for i := 0; i < workers; i++ {
		ws := eng.NewWorkspace()
		if _, err := eng.Run(ws, int64(i)); err != nil { // warm the workspace
			return nil, 0, err
		}
		p.free = append(p.free, ws)
	}
	return p, compile, nil
}

// run merges one batch into agg. With onMerge set it is called at every
// merge with the merge's time and the time since the batch started.
func (p *pooledBatch) run(batch runner.Replications, req uint64, agg *aggregate, onMerge func(time.Time, time.Duration)) error {
	var taken []*sim.Workspace
	runEnd := make([]time.Time, batch.Runs) // written by a worker before its result reaches the merge
	start := time.Now()
	root := p.tr.begin("runner.merge_pooled", 0, req)
	err := runner.MergePooled(batch,
		func() *sim.Workspace {
			p.mu.Lock()
			defer p.mu.Unlock()
			ws := p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			taken = append(taken, ws)
			return ws
		},
		func(ws *sim.Workspace, run int, seed int64) (*sim.Result, error) {
			sp := p.tr.begin("sim.engine.run", root.ID, req)
			t0 := time.Now()
			res, err := p.eng.Run(ws, seed)
			runEnd[run] = time.Now()
			p.busy.Add(int64(runEnd[run].Sub(t0)))
			p.tr.end(sp)
			return res, err
		},
		func(run int, res *sim.Result) error {
			sp := p.tr.begin("runner.merge", root.ID, req)
			now := time.Now()
			p.mergeWait.observe(now.Sub(runEnd[run]))
			if onMerge != nil {
				onMerge(now, now.Sub(start))
			}
			err := agg.fold(run, res)
			p.tr.end(sp)
			return err
		})
	p.tr.end(root)
	p.mu.Lock()
	p.free = append(p.free, taken...)
	p.mu.Unlock()
	return err
}

// batchLoop runs batch(0), batch(1), ... back to back until end, starting at
// index first, and returns the next index.
func batchLoop(first int64, end time.Time, batch func(b int64)) int64 {
	b := first
	for time.Now().Before(end) {
		batch(b)
		b++
	}
	return b
}

// runSimLarge drives sim-large: batches of 16 replications of a 500-device,
// 200-slot Large-topology run through runner.MergePooled with two workers.
func runSimLarge(cfg config) *result {
	res := &result{lat: new(latHist), layer: make(map[string]float64)}
	scfg := largeConfig()
	// Set-up runs on one goroutine, and so does its reference.
	setupKernel := newComputeRef(1, largeRefSteps)
	var pool *pooledBatch
	var compiles []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		before := setupRef(setupKernel)
		t0 := time.Now()
		p, compile, err := newPooledBatch(scfg, largeWorkers)
		if err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			return res
		}
		res.addSetup(time.Since(t0), (before+setupRef(setupKernel))/2, setupKernel.nominal())
		compiles = append(compiles, compile.Seconds()*1e3)
		pool = p
	}
	batchSeed := rngutil.ChildSeed(cfg.seed, 3, 1)
	batchOf := func(b int64) runner.Replications {
		return runner.Replications{Runs: largeRuns, Workers: largeWorkers, Seed: batchSeed, Stream: []int64{b}}
	}
	perRun := deviceSlots(scfg)
	ref := newComputeRef(largeWorkers, largeRefSteps)
	var first aggregate
	var w *window // nil during warm-up
	var batches int64
	var wall time.Duration
	one := func(b int64) {
		var agg aggregate
		var onMerge func(time.Time, time.Duration)
		if w != nil {
			onMerge = func(done time.Time, d time.Duration) { w.record(done, d, perRun) }
		}
		t0 := time.Now()
		err := pool.run(batchOf(b), uint64(b), &agg, onMerge)
		res.attempted += largeRuns * perRun
		if err != nil {
			res.failed += largeRuns * perRun
			res.fail(fmt.Errorf("batch %d: %w", b, err))
		}
		if b == 0 {
			first = agg
		}
		if w != nil {
			wall += time.Since(t0)
			batches++
		}
		timeRef(ref, w)
	}
	start := time.Now()
	next := batchLoop(0, start.Add(cfg.warmup), one)

	pool.tr = cfg.tr
	pool.busy.Store(0)
	pool.mergeWait = new(latHist)
	w = openWindow(cfg.window)
	res.lat = &w.all
	next = batchLoop(next, w.start.Add(cfg.window), one)
	res.ws = w.close()

	if next > 0 {
		want, err := reference(batchOf(0), scfg)
		switch {
		case err != nil:
			res.fail(fmt.Errorf("reference batch: %w", err))
		case !want.equal(first):
			res.failed += largeRuns * perRun
			res.fail(fmt.Errorf("batch 0 merged %+v, sim.Replicate with one worker gives %+v", first, want))
		}
	}
	runs := float64(max(batches*largeRuns, 1))
	res.layer["sim.compile_ms"] = summarize(compiles).Median
	res.layer["sim.run_ms.p50"] = cfg.tr.hist("sim.engine.run").quantile(0.5) / 1e6
	res.layer["sim.run_ms.p99"] = cfg.tr.hist("sim.engine.run").quantile(0.99) / 1e6
	res.layer["sim.allocs_per_run"] = float64(res.ws.proc.allocs) / runs
	res.layer["sim.bytes_per_run"] = float64(res.ws.proc.allocated) / runs
	res.layer["runner.busy_share"] = float64(pool.busy.Load()) / (largeWorkers * float64(max(wall, 1)))
	res.layer["runner.merge_wait_us.p50"] = pool.mergeWait.quantile(0.5) / 1e3
	res.layer["runner.merge_wait_us.p99"] = pool.mergeWait.quantile(0.99) / 1e3
	return res
}

// clusterRig is an in-process cluster.Serve worker on loopback and the
// session dialed to it.
type clusterRig struct {
	ln   net.Listener
	done chan error
	sess *cluster.Session
	sm   *cluster.SessionMetrics // nil in bare runs
}

func startCluster(traced bool) (*clusterRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &clusterRig{ln: ln, done: make(chan error, 1)}
	go func() { r.done <- cluster.Serve(ln, cluster.WorkerOptions{Workers: 1}) }()
	var opts cluster.Options
	if traced {
		r.sm = cluster.NewSessionMetrics(obsv.NewRegistry())
		opts.Metrics = r.sm
	}
	r.sess = cluster.NewSession([]string{ln.Addr().String()}, opts)
	return r, nil
}

func (r *clusterRig) close() error {
	r.sess.Close()
	r.ln.Close()
	return <-r.done
}

// wire returns the session's frame and byte totals.
func (r *clusterRig) wire() (frames, bytes uint64) {
	if r.sm == nil {
		return 0, 0
	}
	return r.sm.FramesRead.Value() + r.sm.FramesWritten.Value(), r.sm.BytesRead.Value() + r.sm.BytesWritten.Value()
}

// runBatch runs one batch through the session and merges it into agg.
func (r *clusterRig) runBatch(tr *tracer, batch runner.Replications, scfg sim.Config, req uint64, agg *aggregate) error {
	job, err := cluster.NewJob(batch, scfg)
	if err != nil {
		return err
	}
	sp := tr.begin("cluster.session.run", 0, req)
	err = r.sess.Run(job, agg.fold)
	tr.end(sp)
	return err
}

// runSimBatches drives sim-batches: batches of 8 Setting 1 replications
// through one warm cluster.Session to an in-process worker.
func runSimBatches(cfg config) *result {
	res := &result{lat: new(latHist), layer: make(map[string]float64)}
	scfg := smallConfig()
	perBatch := smallRuns * deviceSlots(scfg)
	var rig *clusterRig
	var local *pooledBatch
	var compiles []float64
	warm := runner.Replications{Runs: smallRuns, Seed: rngutil.ChildSeed(cfg.seed, 4, 0)}
	echo, err := startEcho()
	if err != nil {
		res.fail(fmt.Errorf("reference echo: %w", err))
		return res
	}
	defer echo.close()
	ref := &blendRef{k: newComputeRef(1, smallRefSteps), e: echo, echoes: smallRefEchoes}
	for rep := 0; rep < cfg.setupReps; rep++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				res.fail(fmt.Errorf("set-up %d: close: %w", rep, err))
			}
		}
		before := setupRef(ref)
		t0 := time.Now()
		if rig, err = startCluster(cfg.tr != nil); err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			return res
		}
		for b := 0; b < warmBatches; b++ { // dial, handshake, compile on the worker, warm the path
			var agg aggregate
			warm.Stream = []int64{int64(b)}
			if err := rig.runBatch(nil, warm, scfg, 0, &agg); err != nil {
				res.fail(fmt.Errorf("set-up: %w", err))
			}
		}
		var compile time.Duration
		if local, compile, err = newPooledBatch(scfg, 1); err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			return res
		}
		res.addSetup(time.Since(t0), (before+setupRef(ref))/2, ref.nominal())
		compiles = append(compiles, compile.Seconds()*1e3)
	}
	defer func() {
		if err := rig.close(); err != nil {
			res.fail(fmt.Errorf("close: %w", err))
		}
	}()

	batchSeed := rngutil.ChildSeed(cfg.seed, 4, 1)
	batchOf := func(b int64) runner.Replications {
		return runner.Replications{Runs: smallRuns, Seed: batchSeed, Stream: []int64{b}}
	}
	var firsts []aggregate
	var tr *tracer
	var w *window // nil during warm-up
	one := func(b int64) {
		var agg aggregate
		t0 := time.Now()
		err := rig.runBatch(tr, batchOf(b), scfg, uint64(b), &agg)
		done := time.Now()
		res.attempted += perBatch
		if err != nil {
			res.failed += perBatch
			res.fail(fmt.Errorf("batch %d: %w", b, err))
		}
		if b < checkBatches {
			firsts = append(firsts, agg)
		}
		if w != nil {
			w.record(done, done.Sub(t0), perBatch)
		}
		if b%smallRefEvery == 0 {
			timeRef(ref, w)
		}
	}
	start := time.Now()
	next := batchLoop(0, start.Add(cfg.warmup), one)

	tr = cfg.tr
	frames0, bytes0 := rig.wire()
	w = openWindow(cfg.window)
	res.lat = &w.all
	batchLoop(next, w.start.Add(cfg.window), one)
	res.ws = w.close()
	frames1, bytes1 := rig.wire()
	batches := float64(max(res.lat.n(), 1))
	if ref.err != nil {
		res.fail(fmt.Errorf("reference echo: %w", ref.err))
	}

	for b := range firsts {
		want, err := reference(batchOf(int64(b)), scfg)
		switch {
		case err != nil:
			res.fail(fmt.Errorf("reference batch %d: %w", b, err))
		case !want.equal(firsts[b]):
			res.failed += perBatch
			res.fail(fmt.Errorf("batch %d merged %+v, sim.Replicate gives %+v", b, firsts[b], want))
		}
	}

	res.layer["sim.compile_ms"] = summarize(compiles).Median
	if cfg.tr == nil {
		return res
	}
	res.layer["cluster.session_run_ms.p50"] = cfg.tr.hist("cluster.session.run").quantile(0.5) / 1e6
	res.layer["cluster.session_run_ms.p99"] = cfg.tr.hist("cluster.session.run").quantile(0.99) / 1e6
	res.layer["cluster.bytes_per_batch"] = float64(bytes1-bytes0) / batches
	res.layer["cluster.frames_per_batch"] = float64(frames1-frames0) / batches
	res.layer["cluster.reconnects"] = float64(rig.sm.Reconnects.Value())
	res.layer["cluster.reassigned"] = float64(rig.sm.ChunksReassigned.Value())

	// Attribute the session: the same seeds through Session.Run and through
	// an in-process MergePooled, alternating which goes first.
	local.tr = cfg.tr
	overhead := make([]float64, 0, overheadPairs)
	pairSeed := rngutil.ChildSeed(cfg.seed, 4, 2)
	for k := 0; k < overheadPairs; k++ {
		batch := runner.Replications{Runs: smallRuns, Workers: 1, Seed: pairSeed, Stream: []int64{int64(k)}}
		var remote, inproc aggregate
		var dRemote, dLocal time.Duration
		var errRemote, errLocal error
		viaSession := func() {
			t0 := time.Now()
			errRemote = rig.runBatch(nil, batch, scfg, uint64(k), &remote)
			dRemote = time.Since(t0)
		}
		inProcess := func() {
			t0 := time.Now()
			errLocal = local.run(batch, uint64(k), &inproc, nil)
			dLocal = time.Since(t0)
		}
		if k%2 == 0 {
			viaSession()
			inProcess()
		} else {
			inProcess()
			viaSession()
		}
		if errRemote != nil || errLocal != nil || !remote.equal(inproc) {
			res.fail(fmt.Errorf("overhead pair %d: session %+v (%v), in-process %+v (%v)", k, remote, errRemote, inproc, errLocal))
			continue
		}
		overhead = append(overhead, (dRemote-dLocal).Seconds()*1e3)
	}
	if len(overhead) > 0 {
		res.layer["cluster.overhead_ms.p50"] = summarize(overhead).Median
	}
	res.layer["sim.run_ms.p50"] = cfg.tr.hist("sim.engine.run").quantile(0.5) / 1e6
	res.layer["sim.run_ms.p99"] = cfg.tr.hist("sim.engine.run").quantile(0.99) / 1e6
	return res
}
