package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailNeedsEnoughSamples(t *testing.T) {
	fake := func(n int) workload {
		return workload{name: "fake", tail: minTailSamples, run: func(config) *result {
			r := &result{lat: new(latHist), layer: make(map[string]float64), ws: windowStats{ops: int64(n), rel: 1}}
			for i := 0; i < n; i++ {
				r.lat.observe(time.Duration(i))
			}
			return r
		}}
	}
	cfg := defaultConfig()
	if r := runOne(fake(minTailSamples-1), cfg); r.correct() {
		t.Fatalf("a window of %d samples passed", minTailSamples-1)
	}
	if r := runOne(fake(minTailSamples), cfg); !r.correct() {
		t.Fatalf("a window of %d samples failed: %v", minTailSamples, r.errs)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	// Spans finish children first, as calls return before their callers.
	for _, sp := range []span{
		{Name: "serve.client.select", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "serve.store.snapshot", ID: 5, Parent: 4, Start: 62, End: 68},
		{Name: "serve.client.select", ID: 4, Parent: 1, Start: 60, End: 70},
		{Name: "serve.client.select", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{Name: "serve.client.select", ID: 6, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{Name: "op", ID: 1, Start: 0, End: 100},
	} {
		tr.finish(sp)
	}
	// Children cover [10,50] ∪ [60,70] ∪ [90,100] = 60 of the parent's 100;
	// the grandchild lies inside a child and does not count again.
	if got := tr.self["op"].self; got != 40 {
		t.Errorf("parent self time %d, want 40", got)
	}
	if got := tr.self["serve.client.select"]; got.count != 4 || got.self != (20+30+4+30) {
		t.Errorf("children %+v, want 4 spans with self time 84", got)
	}
	if got := tr.self["serve.store.snapshot"].self; got != 6 {
		t.Errorf("grandchild self time %d, want 6", got)
	}
	if len(tr.kids) != 0 {
		t.Errorf("%d parents' children still held after every span finished", len(tr.kids))
	}
}

func TestSpanFileSamplesTheWholeWindow(t *testing.T) {
	tr := newTracer()
	const reqs = 5 * spanCap
	for req := uint64(0); req < reqs; req++ {
		tr.finish(span{Name: "op", ID: req + 1, Req: req, Start: int64(req), End: int64(req) + 1})
	}
	kept := tr.spans()
	if len(kept) == 0 || len(kept) > spanCap {
		t.Fatalf("kept %d spans, want 1..%d", len(kept), spanCap)
	}
	if int64(len(kept))+tr.dropped != reqs {
		t.Errorf("kept %d + dropped %d, want %d", len(kept), tr.dropped, reqs)
	}
	for i, sp := range kept {
		if sp.Req != uint64(i)*tr.stride {
			t.Fatalf("span %d has request %d, want every %d-th request", i, sp.Req, tr.stride)
		}
	}
	if last := kept[len(kept)-1].Req; last < reqs-tr.stride {
		t.Errorf("last kept request %d of %d: the file stops before the window ends", last, reqs)
	}
}

func TestRelativeLatencyCancelsMachineDrift(t *testing.T) {
	w := &window{start: time.Unix(0, 0), length: windowSlices * time.Second}
	for i := range windowSlices {
		speed := time.Duration(10 + i) // the machine slows slice by slice
		op, ref := 2000*speed, 1000*speed
		if i == 3 || i == 7 { // a neighbour's burst slows the op more than the reference
			op, ref = op*16/10, ref*13/10
		}
		done := w.start.Add(time.Duration(i)*time.Second + time.Second/2)
		for range 50 {
			w.record(done, op, 1)
			w.recordRef(done, ref)
		}
	}
	st := w.close()
	if math.Abs(st.rel-2) > 0.02 {
		t.Errorf("latency_p50_rel %v, want 2: every undisturbed slice's op takes twice its reference", st.rel)
	}
	if st.p50 < 29000 || st.p50 > 33000 {
		t.Errorf("raw p50 %v ns, want the middle slices' ~31000", st.p50)
	}
}

func TestStreamsDependOnSeedNotLength(t *testing.T) {
	draw := func(seed int64, n int) []serveReq {
		spec := churnSpec(256)
		s := newStream(seed, spec.id, 1)
		out := make([]serveReq, n)
		for i := range out {
			out[i] = spec.next(s)
		}
		return out
	}
	short, long := draw(1, 500), draw(1, 2000)
	if !reflect.DeepEqual(short, long[:500]) {
		t.Fatal("the first 500 requests depend on how many are drawn")
	}
	if reflect.DeepEqual(short, draw(2, 500)) {
		t.Fatal("seeds 1 and 2 give the same requests")
	}
}

func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.IQR != 1 || s.Spread != 9/5.5 {
		t.Fatalf("summary %+v", s)
	}
}

func TestQuantileInterpolatesWithinBuckets(t *testing.T) {
	var h latHist
	for v := 1000; v < 2000; v++ {
		h.observe(time.Duration(v))
	}
	if got := h.quantile(0.5); math.Abs(got-1500) > 15 {
		t.Fatalf("median %v of 1000..1999, want about 1500", got)
	}
}

// smokeWindow is each workload's smoke-test window: 200 ms a half, or long
// enough that each half of a traced command reaches the workload's latency
// sample count on a busy two-vCPU host (sim-batches 500-900 batches a
// second, sim-large 40-60 replications a second).
var smokeWindow = map[string]time.Duration{
	"serve-hot":   400 * time.Millisecond,
	"serve-churn": 400 * time.Millisecond,
	"sim-batches": 5 * time.Second,
	"sim-large":   11 * time.Second,
}

func smokeConfig(workload string) config {
	cfg := defaultConfig()
	cfg.window = smokeWindow[workload]
	cfg.warmup = 100 * time.Millisecond
	cfg.setupReps = 2
	cfg.churnDevices = 256
	return cfg
}

func TestCorruptedAnswerFailsTheCommand(t *testing.T) {
	cfg := smokeConfig("serve-hot")
	cfg.corruptOp = 5
	var out bytes.Buffer
	rep, err := runWorkloads(&out, []string{"serve-hot"}, cfg, false, t.TempDir())
	if code := finish(&out, io.Discard, rep, err); code == 0 {
		t.Fatalf("exit code 0 with a corrupted answer:\n%s", out.String())
	}
	if rep.Failed == 0 || !strings.Contains(out.String(), "CHECK FAILED") {
		t.Fatalf("failed=%d; output:\n%s", rep.Failed, out.String())
	}
}

// TestSmoke runs every workload's traced command, a bare half and a traced
// half, with every check on and requires every metric BENCHMARK.json names
// to be printed with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := runWorkloads(&out, []string{w.Name}, smokeConfig(w.Name), true, t.TempDir())
			if code := finish(&out, io.Discard, rep, err); code != 0 {
				t.Fatalf("exit code %d:\n%s", code, out.String())
			}
			text := out.String()
			if got := strings.Count(text, "\nfailed_share 0 ratio\n"); got != 2 {
				t.Errorf("failed_share 0 printed %d times, want 2 (a bare and a traced half)", got)
			}
			printed := make(map[string]bool)
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) == 3 {
					printed[f[0]+" "+f[2]] = true
				}
			}
			for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
				if !printed[m.Name+" "+m.Unit] {
					t.Errorf("metric %s [%s] not printed", m.Name, m.Unit)
				}
			}
		})
	}
}
