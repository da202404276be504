package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is everything a workload run depends on besides the code under
// test. Store and engine configurations are constants in the workload files.
type config struct {
	seed      int64
	window    time.Duration // measured interval
	warmup    time.Duration // unmeasured interval before it
	setupReps int           // set-ups per run; setup_s is their median
	// churnDevices is the serve-churn population joined in set-up.
	churnDevices int
	// corruptOp, when ≥ 0, alters the answer recorded for that op of a serve
	// workload before the replay check sees it (tests prove the check fires).
	corruptOp int64
	tr        *tracer // nil for a bare run
}

func defaultConfig() config {
	return config{
		seed:         1,
		window:       20 * time.Second,
		warmup:       2 * time.Second,
		setupReps:    7,
		churnDevices: 8192,
		corruptOp:    -1,
	}
}

// result is what one workload run measured and checked.
type result struct {
	attempted int64 // decisions made in set-up, warm-up and window
	failed    int64 // of those, decisions that failed, were refused or answered wrongly
	errs      []error
	ws        windowStats
	lat       *latHist // every latency sample of the measured window
	setup     []time.Duration
	setupAt   []float64          // each set-up in seconds at the reference's nominal speed
	layer     map[string]float64 // per-layer metrics the run measured
}

func (r *result) fail(err error) { r.errs = append(r.errs, err) }

// addSetup records a set-up that took wall, preceded by reference ops whose
// median was ref against a nominal median of nominal.
func (r *result) addSetup(wall, ref, nominal time.Duration) {
	r.setup = append(r.setup, wall)
	r.setupAt = append(r.setupAt, wall.Seconds()*float64(nominal)/float64(ref))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

// workload is one seeded input set and the loop that drives it.
type workload struct {
	name string
	why  string
	op   string // what one latency sample times
	// tail is the latency sample count a measured window must reach.
	tail int
	run  func(cfg config) *result
}

var workloads = []workload{
	{"serve-hot", "one connection, 64 warm devices: isolates client, frame codec and server loop",
		"one Select+Feedback from the call", minTailSamples, runServeHot},
	{"serve-churn", "closed loop over 8,192 devices with arm-set changes, releases and snapshots: puts the work in the store",
		"one Select, its Feedback and any Release, from the call", minTailSamples, runServeChurn},
	// A sim-large window holds ~50 replications a second, so its p99 rests
	// on fewer samples than the other workloads'; see doc.go.
	{"sim-large", "16 replications of 500 devices x 200 slots per batch: Engine.Run is nearly all the time",
		"one replication, from its batch's start to its merge", 200, runSimLarge},
	{"sim-batches", "8 small Setting 1 replications per batch through a cluster session: dispatch and merge dominate",
		"one batch through Session.Run", minTailSamples, runSimBatches},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one printed metric.
type metricDef struct {
	name, unit string
	layer      bool
}

var metricDefs = []metricDef{
	{"latency_p50_rel", "ratio", false},
	{"setup_s", "s", false},
	{"heap_live_peak_mb", "MB", false},

	{"serve.client.select_us.p50", "us", true},
	{"serve.client.select_us.p99", "us", true},
	{"serve.client.feedback_us.p50", "us", true},
	{"serve.client.feedback_us.p99", "us", true},
	{"serve.client.ping_us.p50", "us", true},
	{"serve.client.release_us.p50", "us", true},
	{"serve.client.reconnects", "count", true},
	{"serve.client.feedback_dropped", "count", true},
	{"serve.server.frames_per_decision", "count", true},
	{"serve.server.bytes_per_decision", "B", true},
	{"serve.store.direct_ns_per_decision", "ns", true},
	{"serve.store.join_us", "us", true},
	{"serve.store.select_ns.p50", "ns", true},
	{"serve.store.select_ns.p99", "ns", true},
	{"serve.store.snapshot_ms", "ms", true},
	{"serve.store.encode_ms", "ms", true},
	{"serve.store.snapshot_bytes_per_device", "B", true},
	{"serve.store.dropped_share", "ratio", true},
	{"serve.store.devices", "count", true},
	{"sim.run_ms.p50", "ms", true},
	{"sim.run_ms.p99", "ms", true},
	{"sim.allocs_per_run", "count", true},
	{"sim.bytes_per_run", "B", true},
	{"sim.compile_ms", "ms", true},
	{"runner.busy_share", "ratio", true},
	{"runner.merge_wait_us.p50", "us", true},
	{"runner.merge_wait_us.p99", "us", true},
	{"cluster.session_run_ms.p50", "ms", true},
	{"cluster.session_run_ms.p99", "ms", true},
	{"cluster.overhead_ms.p50", "ms", true},
	{"cluster.bytes_per_batch", "B", true},
	{"cluster.frames_per_batch", "count", true},
	{"cluster.reconnects", "count", true},
	{"cluster.reassigned", "count", true},
	{"proc.cpu_us_per_op", "us", true},
	{"proc.gc_cycles", "count", true},
	{"proc.gc_pause_ms", "ms", true},
	{"proc.alloc_bytes_per_op", "B", true},
	{"loadgen.decide_p99_us", "us", true},
	{"loadgen.decide_p999_us", "us", true},
	{"bare.latency_p50_us", "us", true},
	{"bare.decisions_per_s", "1/s", true},
	{"bare.ref_p50_us", "us", true},
	{"trace.latency_ratio", "ratio", true},
	{"trace.rate_ratio", "ratio", true},
	{"trace.spans_dropped", "count", true},
}

// endToEnd derives the end-to-end metrics of a bare run.
func endToEnd(r *result) map[string]float64 {
	m := map[string]float64{
		"latency_p50_rel":   r.ws.rel,
		"heap_live_peak_mb": float64(r.ws.heapPeak) / 1e6,
	}
	if len(r.setupAt) > 0 {
		m["setup_s"] = summarize(r.setupAt).Median
	}
	return m
}

// fromBare lists the per-layer prefixes a traced command takes from its
// bare half: they describe the load and the process, which tracing distorts.
var fromBare = []string{"loadgen.", "proc.", "bare."}

func isFromBare(name string) bool {
	for _, p := range fromBare {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// perLayer derives the per-layer metrics from a traced run, its tracer and
// the bare run it is compared with; a layer the workload does not exercise
// reads 0.
func perLayer(tr, bare *result, t *tracer) map[string]float64 {
	m := make(map[string]float64)
	for _, d := range metricDefs {
		if d.layer {
			m[d.name] = 0
		}
	}
	for k, v := range tr.layer {
		if !isFromBare(k) {
			m[k] = v
		}
	}
	for k, v := range bare.layer {
		if isFromBare(k) {
			m[k] = v
		}
	}
	if bare.ws.rel > 0 {
		m["trace.latency_ratio"] = tr.ws.rel / bare.ws.rel
	}
	if bare.ws.rate > 0 {
		m["trace.rate_ratio"] = tr.ws.rate / bare.ws.rate
	}
	m["trace.spans_dropped"] = float64(t.dropped)
	return m
}

// runOne runs a workload and applies the checks and measurements every run
// shares.
func runOne(w workload, cfg config) *result {
	r := w.run(cfg)
	if r.ws.ops == 0 && len(r.errs) > 0 {
		return r // set-up failed; its error is recorded
	}
	if err := checkTail(w.name, r.lat.n(), w.tail); err != nil {
		r.fail(err)
	}
	if r.ws.rel == 0 {
		r.fail(fmt.Errorf("%s: no reference op was timed in the window", w.name))
	}
	ops, p := float64(max(r.ws.ops, 1)), r.ws.proc
	r.layer["proc.cpu_us_per_op"] = p.cpu.Seconds() * 1e6 / ops
	r.layer["proc.gc_cycles"] = float64(p.gcCycles)
	r.layer["proc.gc_pause_ms"] = p.gcPause.Seconds() * 1e3
	r.layer["proc.alloc_bytes_per_op"] = float64(p.allocated) / ops
	r.layer["loadgen.decide_p99_us"] = r.lat.quantile(0.99) / 1e3
	r.layer["loadgen.decide_p999_us"] = r.lat.quantile(0.999) / 1e3
	r.layer["bare.latency_p50_us"] = r.ws.p50 / 1e3
	r.layer["bare.decisions_per_s"] = r.ws.rate
	r.layer["bare.ref_p50_us"] = r.ws.refP50 / 1e3
	return r
}

func unitOf(name string) string {
	for _, d := range metricDefs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %v %s\n", k, m[k], unitOf(k))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool                          `json:"correct"`
	Attempted int64                         `json:"attempted"`
	Failed    int64                         `json:"failed"`
	Metrics   map[string]jsonMetric         `json:"metrics"`
	Env       map[string]any                `json:"env,omitempty"`
	Summary   map[string]map[string]summary `json:"summary,omitempty"`
}

func (rep *report) add(key, name string, v float64) {
	rep.Metrics[key] = jsonMetric{Value: v, Unit: unitOf(name)}
}

// describe prints a run's counts, its raw timings and any failed checks.
func describe(w io.Writer, wl workload, r *result) {
	fmt.Fprintf(w, "# workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "attempted %d count\nfailed %d count\nfailed_share %v ratio\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	fmt.Fprintf(w, "latency_samples %d count (%s)\n", r.lat.n(), wl.op)
	fmt.Fprintf(w, "latency_p50_us %v us\nref_p50_us %v us\ndecisions_per_s %v 1/s\n",
		r.ws.p50/1e3, r.ws.refP50/1e3, r.ws.rate)
	if len(r.setup) > 0 {
		raw := make([]float64, len(r.setup))
		for i, d := range r.setup {
			raw[i] = d.Seconds()
		}
		fmt.Fprintf(w, "setup_wall_s %v s\n", summarize(raw).Median)
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", err)
	}
}

// runWorkloads runs the named workloads once each and returns the final
// report. A bare command reports the end-to-end metrics. A traced command
// splits each window into two halves, a bare run and then a traced one,
// and reports the per-layer metrics and the tracing overhead between them.
func runWorkloads(out io.Writer, names []string, cfg config, traced bool, spansDir string) (*report, error) {
	rep := &report{Correct: true, Metrics: make(map[string]jsonMetric)}
	key := func(wl, name string) string {
		if len(names) == 1 {
			return name
		}
		return wl + ":" + name
	}
	account := func(r *result) {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.Correct = rep.Correct && r.correct()
	}
	for _, name := range names {
		wl, _ := findWorkload(name)
		if !traced {
			r := runOne(wl, cfg)
			describe(out, wl, r)
			account(r)
			e2e := endToEnd(r)
			printMetrics(out, e2e)
			for k, v := range e2e {
				rep.add(key(name, k), k, v)
			}
			continue
		}
		half := cfg
		half.window = cfg.window / 2
		bare := runOne(wl, half)
		fmt.Fprintf(out, "# bare half of %s\n", name)
		describe(out, wl, bare)
		printMetrics(out, endToEnd(bare))
		account(bare)
		half.tr = newTracer()
		r := runOne(wl, half)
		fmt.Fprintf(out, "# traced half of %s\n", name)
		describe(out, wl, r)
		account(r)
		layer := perLayer(r, bare, half.tr)
		printMetrics(out, layer)
		half.tr.printSelfTimes(out)
		for k, v := range layer {
			rep.add(key(name, k), k, v)
		}
		if err := saveSpans(spansDir, name, half.tr.spans()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func saveSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// benchmarkBounds reads the end-to-end bounds from BENCHMARK.json.
func benchmarkBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bounds: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bounds: %s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// repeat runs rounds of bare runs and summarizes every end-to-end metric
// per workload. Each run is a separate process, this executable with the
// benchmark's own flags, so rounds spread as separate invocations do; round
// r runs every workload in turn with seed+r. A quartile spread
// ((q3-q1)/median) beyond the metric's bound fails the command, except for
// setup_s, whose bound only limits how far its median may move.
func repeat(out, errOut io.Writer, names []string, cfg config, rounds int, boundsPath string) (*report, error) {
	bounds, err := benchmarkBounds(boundsPath)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	values := make(map[string]map[string][]float64)
	rep := &report{Correct: true, Metrics: make(map[string]jsonMetric), Summary: make(map[string]map[string]summary), Env: environment(cfg)}
	for round := 0; round < rounds; round++ {
		for _, name := range names {
			seed := cfg.seed + int64(round)
			fmt.Fprintf(out, "# round %d seed %d\n", round+1, seed)
			child, err := runChild(out, errOut, exe, name, seed, cfg.window)
			if err != nil {
				fmt.Fprintf(out, "CHECK FAILED: %v\n", err)
				rep.Correct = false
				continue
			}
			rep.Attempted += child.Attempted
			rep.Failed += child.Failed
			rep.Correct = rep.Correct && child.Correct
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for k, m := range child.Metrics {
				values[name][k] = append(values[name][k], m.Value)
			}
		}
	}
	fmt.Fprintln(out, "# summary: median q1 q3 (q3-q1)/median (max-min)/median bound")
	for _, name := range names {
		rep.Summary[name] = make(map[string]summary)
		metrics := make([]string, 0, len(values[name]))
		for k := range values[name] {
			metrics = append(metrics, k)
		}
		sort.Strings(metrics)
		for _, k := range metrics {
			s := summarize(values[name][k])
			rep.Summary[name][k] = s
			rep.add(name+":"+k, k, s.Median)
			verdict := "ok"
			if b, ok := bounds[k]; ok && k != "setup_s" && s.IQR > b {
				verdict = "SPREAD EXCEEDS BOUND"
				rep.Correct = false
			}
			fmt.Fprintf(out, "%s %s median=%v q1=%v q3=%v iqr_share=%.4f spread=%.4f bound=%v %s %s\n",
				name, k, s.Median, s.Q1, s.Q3, s.IQR, s.Spread, bounds[k], unitOf(k), verdict)
		}
	}
	return rep, nil
}

// runChild runs one bare workload in a child process, copying its output,
// and returns the report on the child's last line. A child that exits
// nonzero after printing its report failed a check.
func runChild(out, errOut io.Writer, exe, name string, seed int64, window time.Duration) (*report, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(window.Seconds(), 'g', -1, 64), "-trace", "0")
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = errOut
	runErr := cmd.Run()
	text := strings.TrimSpace(buf.String())
	var rep report
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d printed no report (exit: %v)", name, seed, runErr)
	}
	if runErr != nil {
		rep.Correct = false
	}
	return &rep, nil
}

// environment records where a repeat ran.
func environment(cfg config) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"window_s":   cfg.window.Seconds(),
		"warmup_s":   cfg.warmup.Seconds(),
		"first_seed": cfg.seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// parseWorkloads resolves the -workload flag: a comma list, or all four.
func parseWorkloads(list string) ([]string, error) {
	if list == "" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return names, nil
	}
	var names []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if _, ok := findWorkload(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// run is the command: it returns the process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	cfg := defaultConfig()
	var list, spans string
	var seconds float64
	var trace, rounds int
	fs.StringVar(&list, "workload", "", "comma-separated workloads; empty runs all four")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed")
	fs.Float64Var(&seconds, "seconds", cfg.window.Seconds(), "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: split each window into a bare and a traced half and report per-layer metrics")
	fs.StringVar(&spans, "spans", ".bench_build", "directory for the traced runs' span files")
	fs.IntVar(&rounds, "repeat", 0, "run this many rounds of bare runs, one process each, and check their spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names, err := parseWorkloads(list)
	if err == nil && (trace != 0 && trace != 1 || seconds <= 0 || rounds < 0) {
		err = errors.New("-trace takes 0 or 1, -seconds must be positive, -repeat must not be negative")
	}
	if err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))

	var rep *report
	if rounds > 0 {
		rep, err = repeat(out, errOut, names, cfg, rounds, "BENCHMARK.json")
	} else {
		rep, err = runWorkloads(out, names, cfg, trace == 1, spans)
	}
	return finish(out, errOut, rep, err)
}

// finish prints the report as the last line of output and returns the exit
// code: 0 only when every run was correct.
func finish(out, errOut io.Writer, rep *report, err error) int {
	if err == nil {
		var line []byte
		if line, err = json.Marshal(rep); err == nil {
			fmt.Fprintln(out, string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
