package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// procCounters are the process-wide counters a window is charged with.
type procCounters struct {
	cpu       time.Duration // user + system
	gcCycles  uint32
	gcPause   time.Duration
	allocs    uint64 // objects
	allocated uint64 // bytes
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles:  ms.NumGC,
		gcPause:   time.Duration(ms.PauseTotalNs),
		allocs:    ms.Mallocs,
		allocated: ms.TotalAlloc,
	}
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{
		cpu:       a.cpu - b.cpu,
		gcCycles:  a.gcCycles - b.gcCycles,
		gcPause:   a.gcPause - b.gcPause,
		allocs:    a.allocs - b.allocs,
		allocated: a.allocated - b.allocated,
	}
}

// windowSlices is how many equal slices a window is cut into. Statistics
// taken over the slices' medians let a few seconds of interference from
// outside the process move one slice rather than the reported value.
const windowSlices = 10

// window measures one workload's measured interval: the ops completed and
// their latencies per slice, the reference ops timed between them, process
// counters, and the live heap at its checkpoints.
type window struct {
	start  time.Time
	length time.Duration
	ops    int64
	last   time.Time // latest completion recorded
	all    latHist   // every latency sample of the window
	slices [windowSlices]latHist
	refs   [windowSlices]latHist // reference-op samples
	refAll latHist
	proc   procCounters

	mu   sync.Mutex
	peak uint64
}

func openWindow(length time.Duration) *window {
	return &window{length: length, proc: readProc(), start: time.Now()}
}

// slice returns the slice a sample completing at done falls in, or -1 when
// it completed after the window's end (a batch in flight when it closed).
func (w *window) slice(done time.Time) int {
	if i := int(done.Sub(w.start) * windowSlices / w.length); i >= 0 && i < windowSlices {
		return i
	}
	return -1
}

// record counts ops completed at done with latency d. A sample outside
// every slice counts in the totals only. Callers record from one goroutine.
func (w *window) record(done time.Time, d time.Duration, ops int64) {
	w.ops += ops
	w.last = done
	w.all.observe(d)
	if i := w.slice(done); i >= 0 {
		w.slices[i].observe(d)
	}
}

// recordRef records one reference op completed at done that took d.
func (w *window) recordRef(done time.Time, d time.Duration) {
	w.refAll.observe(d)
	if i := w.slice(done); i >= 0 {
		w.refs[i].observe(d)
	}
}

// checkpoint forces a GC and keeps the largest live heap it leaves. Forced
// collections make the reading a function of what is referenced at fixed
// points of the workload instead of when the runtime chose to collect.
func (w *window) checkpoint() {
	runtime.GC()
	h := liveHeap()
	w.mu.Lock()
	w.peak = max(w.peak, h)
	w.mu.Unlock()
}

// windowStats is what a closed window measured.
type windowStats struct {
	ops      int64
	rate     float64 // ops per second, window start to the last completion
	p50      float64 // median over slices of the slice's op median, ns
	refP50   float64 // the same for the reference op
	rel      float64 // median over slices of op median / reference median
	proc     procCounters
	heapPeak uint64
}

// close ends the window, takes the final heap checkpoint and summarizes.
//
// rel is the median over the slices of each slice's ratio of op median to
// reference median. Pairing op and reference within a slice cancels the
// machine's drift across the window; the median over slices lets a few
// slices that neighbours disturbed, in either direction, not move it.
//
// Slices holding no op or no reference sample (only in windows far shorter
// than a real run's) are left out; with none left, the statistics fall back
// to the whole window's samples.
func (w *window) close() windowStats {
	st := windowStats{ops: w.ops, proc: readProc().sub(w.proc)}
	w.checkpoint()
	st.heapPeak = w.peak
	if w.ops > 0 {
		st.rate = float64(w.ops) / w.last.Sub(w.start).Seconds()
	}
	var p50s, refs, rels []float64
	for i := range w.slices {
		if w.slices[i].n() == 0 || w.refs[i].n() == 0 {
			continue
		}
		op, ref := w.slices[i].quantile(0.5), w.refs[i].quantile(0.5)
		p50s, refs, rels = append(p50s, op), append(refs, ref), append(rels, op/ref)
	}
	if len(rels) == 0 {
		st.p50, st.refP50 = w.all.quantile(0.5), w.refAll.quantile(0.5)
		if st.refP50 > 0 {
			st.rel = st.p50 / st.refP50
		}
		return st
	}
	st.p50, st.refP50, st.rel = summarize(p50s).Median, summarize(refs).Median, summarize(rels).Median
	return st
}
