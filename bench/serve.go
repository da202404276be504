package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"smartexp3/internal/obsv"
	"smartexp3/internal/serve"
)

// The store configuration is fixed: the program receives only the
// generated requests.
const (
	storeSeed   = 7
	storeShards = 8
	// answerBlock is how many Select answers share one hash in the answer
	// log. The log stays a few kilobytes however many ops a run makes, so it
	// does not show up in heap_live_peak_mb.
	answerBlock = 256
	pingEvery   = 1000 // traced runs follow every pingEvery-th op with a Client.Ping
	refEvery    = 8    // every refEvery-th op is followed by a reference echo
)

var (
	hotArms      = []int{0, 1, 2, 3}
	churnArmSets = [][]int{{0, 1, 2}, {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7}}
	// armGain is each arm's mean reward; a request's draw scales it.
	armGain = []float64{0.2, 0.4, 0.9, 0.5, 0.3, 0.7, 0.6, 0.1, 0.8, 0.35, 0.55, 0.45}
)

func reward(arm int, u float64) float64 { return min(1, armGain[arm]*(0.75+0.5*u)) }

// serveReq is one decision: a Select, then (unless abandoned) its Feedback,
// then optionally a Release of the device.
type serveReq struct {
	dev      uint64
	arms     []int
	u        float64
	feedback bool
	release  bool
}

// serveSpec is one serve workload's request mix.
type serveSpec struct {
	id       int64
	devices  int
	sets     [][]int
	skipP    float64 // share of decisions whose Feedback is never sent
	releaseP float64 // share of decisions followed by a Release
	snapshot bool    // snapshot and encode the store at 1/4 and 3/4 of the window
	// setup yields the set-up decisions in order.
	setup func(s *stream, yield func(serveReq))
}

func hotSpec() serveSpec {
	return serveSpec{
		id: 1, devices: 64, sets: [][]int{hotArms},
		setup: func(s *stream, yield func(serveReq)) {
			for round := 0; round < 300; round++ {
				for d := 0; d < 64; d++ {
					yield(serveReq{dev: uint64(d), arms: hotArms, u: s.float(), feedback: true})
				}
			}
		},
	}
}

func churnSpec(devices int) serveSpec {
	return serveSpec{
		id: 2, devices: devices, sets: churnArmSets, skipP: 0.02, releaseP: 0.01, snapshot: true,
		setup: func(s *stream, yield func(serveReq)) {
			for d := 0; d < devices; d++ {
				yield(serveReq{dev: uint64(d), arms: churnArmSets[s.intn(len(churnArmSets))], u: s.float(), feedback: true})
			}
		},
	}
}

// next draws the next measured-phase decision. Every call makes the same
// draws, so the stream is a function of the seed alone.
func (sp *serveSpec) next(s *stream) serveReq {
	r := serveReq{dev: uint64(s.intn(sp.devices)), arms: sp.sets[s.intn(len(sp.sets))], u: s.float()}
	r.feedback = s.float() >= sp.skipP
	r.release = s.float() < sp.releaseP
	return r
}

// answerLog folds Select answers into one FNV-1a hash per answerBlock.
type answerLog struct {
	blocks []uint64
	sizes  []int
	h      uint64
	n      int
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (a *answerLog) add(arm int, slot uint64) {
	if a.n == 0 {
		a.h = fnvOffset
	}
	a.h = (a.h ^ uint64(int64(arm))) * fnvPrime
	a.h = (a.h ^ slot) * fnvPrime
	if a.n++; a.n == answerBlock {
		a.flush()
	}
}

func (a *answerLog) flush() {
	if a.n > 0 {
		a.blocks = append(a.blocks, a.h)
		a.sizes = append(a.sizes, a.n)
		a.n = 0
	}
}

// mismatched returns how many answers lie in blocks where got differs from
// want.
func (a *answerLog) mismatched(got *answerLog) int64 {
	var bad int64
	for i := range max(len(a.blocks), len(got.blocks)) {
		if i >= len(a.blocks) || i >= len(got.blocks) || a.blocks[i] != got.blocks[i] || a.sizes[i] != got.sizes[i] {
			if i < len(a.sizes) {
				bad += int64(a.sizes[i])
			} else {
				bad += int64(got.sizes[i])
			}
		}
	}
	return bad
}

// serveRig is one in-process daemon and the single client connection the
// workload drives it through.
type serveRig struct {
	store  *serve.Store
	ln     net.Listener
	done   chan error
	client *serve.Client
	reg    *obsv.Registry // nil in bare runs
	sm     *serve.ServerMetrics
	cm     *serve.ClientMetrics
}

func startRig(traced bool) (*serveRig, error) {
	store, err := serve.NewStore(serve.Config{Seed: storeSeed, Shards: storeShards})
	if err != nil {
		return nil, err
	}
	rig := &serveRig{store: store, done: make(chan error, 1)}
	var sopts serve.ServerOptions
	var copts serve.ClientOptions
	if traced {
		rig.reg = obsv.NewRegistry()
		store.Instrument(rig.reg)
		rig.sm = serve.NewServerMetrics(rig.reg)
		rig.cm = serve.NewClientMetrics(rig.reg)
		sopts.Metrics, copts.Metrics = rig.sm, rig.cm
	}
	if rig.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	srv := serve.NewServer(store, sopts)
	go func() { rig.done <- srv.Serve(rig.ln) }()
	if rig.client, err = serve.Dial(rig.ln.Addr().String(), copts); err != nil {
		rig.ln.Close()
		<-rig.done
		return nil, err
	}
	return rig, nil
}

// close flushes and closes the client, then waits for the server to drain
// the connection and return.
func (r *serveRig) close() error {
	cerr := r.client.Close()
	r.ln.Close()
	<-r.done
	return cerr
}

// wireFrames returns the server's frame and byte totals.
func (r *serveRig) wireFrames() (frames, bytes uint64) {
	if r.sm == nil {
		return 0, 0
	}
	return r.sm.FramesRead.Value() + r.sm.FramesWritten.Value(), r.sm.BytesRead.Value() + r.sm.BytesWritten.Value()
}

// serveCaller sends decisions over the rig's client and logs the answers.
type serveCaller struct {
	rig     *serveRig
	echo    *echoRef // the reference op
	w       *window  // nil outside the measured window
	refs    *latHist // the set-up's reference echoes; nil outside set-up
	tr      *tracer
	log     *answerLog
	idx     int64 // decisions sent so far
	corrupt int64
	errs    []error
}

func (d *serveCaller) fail(err error) {
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err)
	}
}

// do sends one decision. Errors are logged as wrong answers.
func (d *serveCaller) do(r serveReq) {
	c, tr, req := d.rig.client, d.tr, uint64(d.idx)
	op := tr.begin("op", 0, req)
	sp := tr.begin("serve.client.select", op.ID, req)
	arm, slot, err := c.SelectSlot(r.dev, r.arms)
	tr.end(sp)
	if err != nil {
		d.fail(fmt.Errorf("op %d: select: %w", d.idx, err))
		arm, slot = -1, 0
	}
	if d.idx == d.corrupt {
		d.log.add(arm+1, slot)
	} else {
		d.log.add(arm, slot)
	}
	if err == nil && r.feedback {
		sp = tr.begin("serve.client.feedback", op.ID, req)
		if err := c.FeedbackSlot(r.dev, arm, slot, reward(arm, r.u)); err != nil {
			d.fail(fmt.Errorf("op %d: feedback: %w", d.idx, err))
		}
		tr.end(sp)
	}
	if r.release {
		sp = tr.begin("serve.client.release", op.ID, req)
		if err := c.Release(r.dev); err != nil {
			d.fail(fmt.Errorf("op %d: release: %w", d.idx, err))
		}
		tr.end(sp)
	}
	tr.end(op)
	d.idx++
}

// gap runs between two decisions, outside any timed op: the reference echo
// after every refEvery-th decision and, in traced runs, a Ping after every
// pingEvery-th.
func (d *serveCaller) gap() {
	if d.tr != nil && d.idx%pingEvery == 0 {
		sp := d.tr.begin("serve.client.ping", 0, uint64(d.idx))
		if err := d.rig.client.Ping(); err != nil {
			d.fail(fmt.Errorf("after op %d: ping: %w", d.idx, err))
		}
		d.tr.end(sp)
	}
	if d.idx%refEvery == 0 {
		t0 := time.Now()
		if err := d.echo.do(); err != nil {
			d.fail(fmt.Errorf("after op %d: reference echo: %w", d.idx, err))
			return
		}
		done := time.Now()
		if d.w != nil {
			d.w.recordRef(done, done.Sub(t0))
		}
		if d.refs != nil {
			d.refs.observe(done.Sub(t0))
		}
	}
}

// countingWriter counts the bytes an encoder writes and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// snapshotStats accumulates the window's snapshots.
type snapshotStats struct {
	count          int
	snap, enc      time.Duration
	bytes, devices int64
	err            error
}

// snapshotAt snapshots and encodes the store at each offset from the
// window's start, unless stop closes first. Each snapshot is still
// referenced at a heap checkpoint after its encode.
func snapshotAt(store *serve.Store, tr *tracer, w *window, offsets []time.Duration, stop <-chan struct{}) *snapshotStats {
	st := new(snapshotStats)
	for _, off := range offsets {
		select {
		case <-stop:
			return st
		case <-time.After(time.Until(w.start.Add(off))):
		}
		root := tr.begin("snapshot", 0, 0)
		sp := tr.begin("serve.store.snapshot", root.ID, 0)
		t0 := time.Now()
		sn := store.Snapshot()
		t1 := time.Now()
		tr.end(sp)
		sp = tr.begin("serve.store.encode", root.ID, 0)
		var cw countingWriter
		if err := sn.Encode(&cw); err != nil && st.err == nil {
			st.err = err
		}
		tr.end(sp)
		tr.end(root)
		w.checkpoint()
		runtime.KeepAlive(sn)
		st.count++
		st.snap += t1.Sub(t0)
		st.enc += time.Since(t1)
		st.bytes += cw.n
		st.devices += int64(len(sn.Devices))
	}
	return st
}

func runServeHot(cfg config) *result   { return runServe(cfg, hotSpec()) }
func runServeChurn(cfg config) *result { return runServe(cfg, churnSpec(cfg.churnDevices)) }

// runServe runs a serve workload: set-up over the wire (repeated, the last
// rig kept), warm-up, the measured window, then the replay check.
func runServe(cfg config, spec serveSpec) *result {
	res := &result{lat: new(latHist), layer: make(map[string]float64)}
	echo, err := startEcho()
	if err != nil {
		res.fail(fmt.Errorf("reference echo: %w", err))
		return res
	}
	defer echo.close()
	var rig *serveRig
	var setupLog *answerLog
	for rep := 0; rep < cfg.setupReps; rep++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				res.fail(fmt.Errorf("set-up %d: close: %w", rep, err))
			}
			rig = nil
			runtime.GC()
		}
		t0 := time.Now()
		if rig, err = startRig(cfg.tr != nil); err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			return res
		}
		// Set-up decisions are interleaved with reference echoes as the
		// window's are; the echoes' time is not set-up time.
		d := &serveCaller{rig: rig, echo: echo, refs: new(latHist), log: new(answerLog), corrupt: -1}
		spec.setup(newStream(cfg.seed, spec.id, 0), func(r serveReq) { d.do(r); d.gap() })
		res.addSetup(time.Since(t0)-time.Duration(d.refs.sum.Load()), time.Duration(d.refs.mean()), echoNominal)
		d.log.flush()
		if setupLog != nil && setupLog.mismatched(d.log) != 0 {
			res.fail(fmt.Errorf("set-up %d answered differently from set-up 0", rep))
		}
		setupLog = d.log
		for _, err := range d.errs {
			res.fail(fmt.Errorf("set-up: %w", err))
		}
	}

	// Warm-up and window share one request stream, one caller and one log.
	ops := newStream(cfg.seed, spec.id, 1)
	d := &serveCaller{rig: rig, echo: echo, log: new(answerLog), corrupt: cfg.corruptOp}
	// phase runs decisions back to back until end, recording them in w
	// unless it is nil.
	phase := func(w *window, end time.Time) {
		d.w = w
		for time.Now().Before(end) {
			t0 := time.Now()
			d.do(spec.next(ops))
			if w != nil {
				done := time.Now()
				w.record(done, done.Sub(t0), 1)
			}
			d.gap()
		}
	}
	phase(nil, time.Now().Add(cfg.warmup))

	d.tr = cfg.tr
	frames0, bytes0 := rig.wireFrames()
	w := openWindow(cfg.window)
	res.lat = &w.all
	stop := make(chan struct{})
	var snaps *snapshotStats
	var wg sync.WaitGroup
	if spec.snapshot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps = snapshotAt(rig.store, cfg.tr, w, []time.Duration{cfg.window / 4, 3 * cfg.window / 4}, stop)
		}()
	}
	phase(w, w.start.Add(cfg.window))
	close(stop)
	wg.Wait()
	res.ws = w.close()
	frames1, bytes1 := rig.wireFrames()
	for _, err := range d.errs {
		res.fail(err)
	}
	if snaps != nil && snaps.err != nil {
		res.fail(fmt.Errorf("snapshot encode: %w", snaps.err))
	}

	if cfg.tr != nil {
		tr, ops := cfg.tr, float64(max(res.ws.ops, 1))
		res.layer["serve.client.select_us.p50"] = tr.hist("serve.client.select").quantile(0.5) / 1e3
		res.layer["serve.client.select_us.p99"] = tr.hist("serve.client.select").quantile(0.99) / 1e3
		res.layer["serve.client.feedback_us.p50"] = tr.hist("serve.client.feedback").quantile(0.5) / 1e3
		res.layer["serve.client.feedback_us.p99"] = tr.hist("serve.client.feedback").quantile(0.99) / 1e3
		res.layer["serve.client.ping_us.p50"] = tr.hist("serve.client.ping").quantile(0.5) / 1e3
		res.layer["serve.client.release_us.p50"] = tr.hist("serve.client.release").quantile(0.5) / 1e3
		res.layer["serve.client.reconnects"] = float64(rig.cm.Reconnects.Value())
		res.layer["serve.client.feedback_dropped"] = float64(rig.cm.DroppedFeedback.Value())
		res.layer["serve.server.frames_per_decision"] = float64(frames1-frames0) / ops
		res.layer["serve.server.bytes_per_decision"] = float64(bytes1-bytes0) / ops
		if p50, p99, err := selectLatency(rig.reg); err != nil {
			res.fail(err)
		} else {
			res.layer["serve.store.select_ns.p50"], res.layer["serve.store.select_ns.p99"] = p50, p99
		}
		if snaps != nil && snaps.count > 0 {
			res.layer["serve.store.snapshot_ms"] = snaps.snap.Seconds() * 1e3 / float64(snaps.count)
			res.layer["serve.store.encode_ms"] = snaps.enc.Seconds() * 1e3 / float64(snaps.count)
			res.layer["serve.store.snapshot_bytes_per_device"] = float64(snaps.bytes) / float64(max(snaps.devices, 1))
		}
	}

	// Finish the stream (the client flushes its last feedback on close) and
	// let the server's store go before the replay builds a fresh one.
	total := d.idx
	if err := rig.close(); err != nil {
		res.fail(fmt.Errorf("close: %w", err))
	}
	devices, dropped := rig.store.Devices(), rig.store.Dropped()
	rig = nil
	runtime.GC()
	d.log.flush()
	rp, err := replay(cfg, spec, total)
	if err != nil {
		res.fail(err)
		return res
	}
	res.attempted = rp.selects
	res.failed = setupLog.mismatched(rp.setup) + d.log.mismatched(rp.ops)
	if res.failed > 0 {
		res.fail(fmt.Errorf("%d answers differ from a replay into a fresh store", res.failed))
	}
	res.layer["serve.store.devices"] = float64(devices)
	res.layer["serve.store.dropped_share"] = float64(dropped) / float64(max(rp.selects, 1))
	res.layer["serve.store.direct_ns_per_decision"] = float64(rp.elapsed.Nanoseconds()) / float64(max(rp.selects, 1))
	res.layer["serve.store.join_us"] = rp.join.mean() / 1e3
	return res
}

// replayed is what a replay into a fresh store answered and cost.
type replayed struct {
	setup, ops *answerLog
	selects    int64
	elapsed    time.Duration
	join       latHist // Selects for a device the store did not hold
}

// replay regenerates the set-up and the first n measured-phase decisions
// and applies them from one goroutine to a fresh store with the same
// configuration, in the order the connection delivered them.
func replay(cfg config, spec serveSpec, n int64) (*replayed, error) {
	store, err := serve.NewStore(serve.Config{Seed: storeSeed, Shards: storeShards})
	if err != nil {
		return nil, err
	}
	rp := &replayed{setup: new(answerLog), ops: new(answerLog)}
	live := make([]bool, spec.devices)
	var firstErr error
	apply := func(log *answerLog) func(serveReq) {
		return func(r serveReq) {
			var t0 time.Time
			join := !live[r.dev]
			if join {
				t0 = time.Now()
			}
			arm, slot, err := store.Select(r.dev, r.arms)
			if join {
				rp.join.observe(time.Since(t0))
				live[r.dev] = true
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("replay select: %w", err)
				}
				arm, slot = -1, 0
			}
			log.add(arm, slot)
			rp.selects++
			if err == nil && r.feedback {
				store.Feedback(r.dev, arm, slot, reward(arm, r.u))
			}
			if r.release {
				store.Release(r.dev)
				live[r.dev] = false
			}
		}
	}
	sp := cfg.tr.begin("serve.store.replay", 0, 0)
	t0 := time.Now()
	spec.setup(newStream(cfg.seed, spec.id, 0), apply(rp.setup))
	ops, do := newStream(cfg.seed, spec.id, 1), apply(rp.ops)
	for i := int64(0); i < n; i++ {
		do(spec.next(ops))
	}
	rp.elapsed = time.Since(t0)
	cfg.tr.end(sp)
	rp.setup.flush()
	rp.ops.flush()
	return rp, firstErr
}

// selectLatency reads the store's sampled Select histogram through the
// registry's JSON export.
func selectLatency(reg *obsv.Registry) (p50, p99 float64, err error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0, 0, err
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
		return 0, 0, err
	}
	var h struct{ P50, P99 float64 }
	if err := json.Unmarshal(all["serve_select_latency_ns"], &h); err != nil {
		return 0, 0, fmt.Errorf("serve_select_latency_ns: %w", err)
	}
	return h.P50, h.P99, nil
}
