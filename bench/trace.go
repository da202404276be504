package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanCap bounds the spans one traced workload keeps for the span file. The
// buffer is allocated before the run. When it fills, the tracer keeps only
// the spans of every other request it held and admits only those from then
// on, so the file samples requests evenly across the whole window. Every
// span, kept or not, feeds its name's histogram and self time.
const spanCap = 1 << 16

// span is one timed call into a layer, in nanoseconds since the tracer's
// start. Parent is the id of the span that caused it (0 for a root) and Req
// is the request it serves: an op or batch index, or 0 for the snapshots
// and the replay.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfStat is the time spans of one name took, and the part of it no child
// span covered.
type selfStat struct {
	count       int
	total, self time.Duration
}

// tracer records spans from the benchmark's side of each public call. A nil
// tracer is the bare run: begin and end do nothing, so the end-to-end
// numbers are measured without it.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	hists map[string]*latHist // per span name; fixed after newTracer

	mu      sync.Mutex
	self    map[string]*selfStat // per span name; fixed after newTracer
	kids    map[uint64][][2]int64
	buf     []span // kept spans: those whose Req is a multiple of stride
	stride  uint64
	dropped int64 // spans ended but not kept
}

// spanNames lists every span the workloads record.
var spanNames = []string{
	"op", "serve.client.select", "serve.client.feedback", "serve.client.ping",
	"serve.client.release", "snapshot", "serve.store.snapshot", "serve.store.encode",
	"serve.store.replay", "sim.engine.run", "runner.merge_pooled", "runner.merge",
	"cluster.session.run",
}

func newTracer() *tracer {
	t := &tracer{
		t0: time.Now(), hists: make(map[string]*latHist), self: make(map[string]*selfStat),
		kids: make(map[uint64][][2]int64), buf: make([]span, 0, spanCap), stride: 1,
	}
	for _, name := range spanNames {
		t.hists[name] = new(latHist)
		t.self[name] = new(selfStat)
	}
	return t
}

// begin opens a span. The returned value is closed with end.
func (t *tracer) begin(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, ID: t.ids.Add(1), Parent: parent, Req: req, Start: int64(time.Since(t.t0))}
}

// end closes sp.
func (t *tracer) end(sp span) {
	if t == nil {
		return
	}
	sp.End = int64(time.Since(t.t0))
	t.finish(sp)
}

// finish accounts a closed span. A span's self time is its duration minus
// the union of its children's intervals, clipped to the span; children may
// nest or overlap (two runner workers run replications side by side). Every
// child must finish before its parent, as a call returns before its caller.
func (t *tracer) finish(sp span) {
	t.hists[sp.Name].observe(time.Duration(sp.End - sp.Start))
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.self[sp.Name]
	st.count++
	st.total += time.Duration(sp.End - sp.Start)
	st.self += time.Duration(sp.End - sp.Start - covered(sp.Start, sp.End, t.kids[sp.ID]))
	delete(t.kids, sp.ID)
	if sp.Parent != 0 {
		t.kids[sp.Parent] = append(t.kids[sp.Parent], [2]int64{sp.Start, sp.End})
	}
	t.keep(sp)
}

// keep adds sp to the buffer if its request is sampled, thinning the buffer
// when it is full. Called with t.mu held.
func (t *tracer) keep(sp span) {
	for len(t.buf) == cap(t.buf) && t.stride < 1<<62 {
		t.stride *= 2
		n := 0
		for _, s := range t.buf {
			if s.Req%t.stride == 0 {
				t.buf[n] = s
				n++
			}
		}
		t.dropped += int64(len(t.buf) - n)
		t.buf = t.buf[:n]
	}
	if sp.Req%t.stride != 0 || len(t.buf) == cap(t.buf) {
		t.dropped++
		return
	}
	t.buf = append(t.buf, sp)
}

// hist returns the histogram of one span name; empty for a nil tracer.
func (t *tracer) hist(name string) *latHist {
	if t == nil {
		return new(latHist)
	}
	return t.hists[name]
}

// spans returns the kept spans.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// covered returns the length of [lo, hi] covered by the union of the
// intervals iv.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		if s, e := max(x[0], lo), min(x[1], hi); e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// printSelfTimes writes one line per span name that ended: calls, total and
// self time, and how many spans the span file holds.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.self))
	for name, s := range t.self {
		if s.count > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s := t.self[name]
		fmt.Fprintf(w, "span %s calls=%d total_ms=%.3f self_ms=%.3f\n",
			name, s.count, s.total.Seconds()*1e3, s.self.Seconds()*1e3)
	}
	fmt.Fprintf(w, "# span file: %d spans, every request whose index is a multiple of %d\n", len(t.buf), t.stride)
}
