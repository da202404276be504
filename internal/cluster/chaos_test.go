package cluster

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"smartexp3/internal/chaos"
	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
	"smartexp3/internal/sim"
)

// TestRunSurvivesChaosProxiedWorker threads one of two workers through the
// seeded chaos proxy — latency, corrupted bytes (which the frame CRC must
// turn into connection errors, never silently different results) and
// mid-stream cuts — and asserts the merged aggregate stays byte-identical
// to the in-process run through all of it.
func TestRunSurvivesChaosProxiedWorker(t *testing.T) {
	job := testJob(t, 24)
	merge, want := fingerprint()
	if err := runBatch(job, nil, Options{LocalWorkers: 1}, merge); err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 2, WorkerOptions{Workers: 1})
	proxy, err := chaos.NewProxy(addrs[0], chaos.Faults{
		Seed:   29,
		MinGap: 1024, MaxGap: 8192,
		Delay: 2, Corrupt: 2, Cut: 1,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	merge2, got := fingerprint()
	err = runBatch(job, []string{proxy.Addr(), addrs[1]},
		Options{ChunkSize: 2, LocalWorkers: 2, Logf: t.Logf}, merge2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("aggregate through the chaos proxy differs from the in-process aggregate")
	}
	if proxy.Conns() == 0 {
		t.Fatal("the chaos proxy never saw a connection; the test proved nothing")
	}
}

// chaosFrameStream renders the canonical session prefix FuzzChaosFrame
// mangles — two ranges and several frames of both directions, long
// enough for tight schedules to land many faults — and the byte offset
// where each frame ends, so the harness knows which frames precede the
// first fault.
func chaosFrameStream(tb testing.TB) (stream []byte, frameEnds []int) {
	tb.Helper()
	spec := JobSpec{Config: testConfig(), Runs: 8, Seed: 11, Stream: []int64{3}}
	res := &message{tag: tagRunResult, result: runResultMsg{Job: 1, Run: 3, Res: &sim.Result{
		Slots:    4,
		Distance: []float64{0.5, 0.25, 0.125, 0},
	}}}
	// bulk is a result with a long per-slot series: the firewall must hold
	// when a fault lands deep inside one large frame, not just between the
	// small chatty ones.
	bulkDistance := make([]float64, 2048)
	for i := range bulkDistance {
		bulkDistance[i] = 1 / float64(i+1)
	}
	bulk := &message{tag: tagRunResult, result: runResultMsg{Job: 2, Run: 1, Res: &sim.Result{
		Slots:    len(bulkDistance),
		Distance: bulkDistance,
	}}}
	first, second := rangeOf(1, 0, 4, &spec), rangeOf(1, 4, 4, &spec)
	frames := []*message{
		&first, &second,
		res, res, bulk, res,
		{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 1, First: 0}},
		{tag: tagPing, ping: pingMsg{Seq: 7}},
		{tag: tagPong, pong: pongMsg{Seq: 7}},
	}
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf)
	for _, m := range frames {
		if err := fw.WriteFrame(m.appendTo(nil)); err != nil {
			tb.Fatal(err)
		}
		frameEnds = append(frameEnds, buf.Len())
	}
	return buf.Bytes(), frameEnds
}

// FuzzChaosFrame feeds chaos-mangled frame streams to the frame reader.
// The invariant is the CRC firewall's contract: every frame wholly before
// the first fault decodes exactly as it did clean, the frame containing
// the fault surfaces an error (corruption must never decode into
// different values), and the stream stays dead after it.
func FuzzChaosFrame(f *testing.F) {
	for _, s := range frametest.ChaosFrameSeeds() {
		f.Add(s.Seed, s.MinGap, s.MaxGap, s.Corrupt, s.Cut)
	}
	clean, frameEnds := chaosFrameStream(f)
	want := make([]*message, 0, len(frameEnds))
	ref := newMsgStream(clean)
	for range frameEnds {
		env, err := ref.next()
		if err != nil {
			f.Fatal(err)
		}
		want = append(want, env)
	}

	f.Fuzz(func(t *testing.T, seed int64, minGap, maxGap, corrupt, cut uint64) {
		faults := chaos.Faults{
			Seed:   seed,
			MinGap: int(minGap % 4096), MaxGap: int(maxGap % 8192),
			Corrupt: int(corrupt % 8), Cut: int(cut % 8),
		}
		mangled, first := chaos.Mangle(clean, faults)
		intact := 0
		for _, end := range frameEnds {
			if end > first {
				break
			}
			intact++
		}
		stream := newMsgStream(mangled)
		for i := 0; i < intact; i++ {
			got, err := stream.next()
			if err != nil {
				t.Fatalf("frame %d ends before the first fault at %d but failed: %v", i, first, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("frame %d ends before the first fault at %d but decoded differently", i, first)
			}
		}
		// Everything after the last intact frame must error — at the fault
		// (CRC mismatch, truncation) or at end of stream — and the reader
		// must stay latched rather than resynchronize on garbage.
		for i := 0; i < 32; i++ {
			if _, err := stream.next(); err == nil {
				t.Fatalf("read %d past the first fault at %d succeeded", intact+i, first)
			}
		}
	})
}

// TestWriteFuzzChaosFrameCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzChaosFrame when UPDATE_FUZZ_CORPUS=1.
func TestWriteFuzzChaosFrameCorpus(t *testing.T) {
	frametest.WriteCorpus(t, "FuzzChaosFrame", frametest.ChaosFrameSeeds())
}
