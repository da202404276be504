package experiment

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/sim"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range All() {
		if d.ID == "" || d.Title == "" || d.Run == nil {
			t.Fatalf("incomplete definition %+v", d)
		}
		if seen[d.ID] {
			t.Fatalf("duplicate experiment id %q", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	// Every table and figure of the evaluation must have an experiment.
	want := []string{
		"fig2", "fig3", "tab4", "fig4", "tab5", "unutil", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "tab6", "fig12", "tab7",
		"fig13", "fig14", "fig15", "wild", "thm2", "thm3", "ablate",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("experiment %d is %q, want %q", i, ids[i], id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig2"); !ok {
		t.Fatal("fig2 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Default()
	if d.Runs <= 0 || d.Slots != 1200 || d.Devices != 20 {
		t.Fatalf("suspicious defaults %+v", d)
	}
	q := Quick()
	if q.Runs >= d.Runs || q.TestbedSlots >= d.TestbedSlots {
		t.Fatalf("Quick() not smaller than Default(): %+v", q)
	}
	if d.workers() < 1 {
		t.Fatal("workers must be at least 1")
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	hit := make([]bool, 37)
	done := make(chan int, len(hit))
	err := forEach(4, len(hit), func(i int) error {
		done <- i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	for i := range done {
		hit[i] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	err := forEach(3, 10, func(i int) error {
		if i == 5 {
			return strconv.ErrRange
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "run 5") {
		t.Fatalf("error = %v", err)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("medianOf odd = %v", got)
	}
	if got := medianOf([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("medianOf even = %v", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Fatalf("medianOf nil = %v", got)
	}
}

// tinyOptions returns the smallest options that still exercise the
// aggregation paths.
func tinyOptions() Options {
	return Options{
		Runs:                3,
		Slots:               120,
		Devices:             8,
		Seed:                1,
		Workers:             2,
		ScaleRuns:           2,
		ScaleSlots:          300,
		TraceRuns:           6,
		TestbedRuns:         1,
		TestbedSlots:        12,
		TestbedSlotDuration: 25 * time.Millisecond,
		WildRuns:            2,
	}
}

func TestStaticAggregationSmoke(t *testing.T) {
	o := tinyOptions()
	agg, err := staticAggFor(o, 1, core.AlgSmartEXP3)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.SwitchesPerDevice) != o.Runs*o.Devices {
		t.Fatalf("pooled %d switch samples, want %d", len(agg.SwitchesPerDevice), o.Runs*o.Devices)
	}
	if len(agg.MedianDownloadGB) != o.Runs {
		t.Fatalf("got %d per-run downloads, want %d", len(agg.MedianDownloadGB), o.Runs)
	}
	if agg.Distance.Len() != o.Slots {
		t.Fatalf("distance series %d slots, want %d", agg.Distance.Len(), o.Slots)
	}
}

func TestStaticAggregationCached(t *testing.T) {
	o := tinyOptions()
	a, err := staticAggFor(o, 1, core.AlgGreedy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := staticAggFor(o, 1, core.AlgGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second call must return the cached aggregate")
	}
}

func TestSyntheticExperimentsSmoke(t *testing.T) {
	// Run every synthetic-simulation experiment end-to-end at tiny scale;
	// testbed and wild experiments have dedicated tests.
	o := tinyOptions()
	for _, id := range []string{
		"fig2", "fig3", "tab4", "fig4", "tab5", "unutil", "fig5",
		"fig7", "fig8", "fig9", "fig10", "fig11", "tab6", "fig12",
		"thm2", "thm3",
	} {
		def, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		rep, err := def.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id {
			t.Fatalf("report id %q for experiment %q", rep.ID, id)
		}
		if len(rep.Tables) == 0 && len(rep.Charts) == 0 {
			t.Fatalf("%s produced no output", id)
		}
		if out := rep.String(); len(out) < 40 {
			t.Fatalf("%s rendered suspiciously little: %q", id, out)
		}
	}
}

func TestScalabilityExperimentSmoke(t *testing.T) {
	o := tinyOptions()
	rep, err := runFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 6 {
		t.Fatalf("fig6 table shape wrong: %+v", rep.Tables)
	}
}

// TestReplicateClusterMatchesInProcess pins the experiment suite's cluster
// hook: o.replicate with a session over a shardd worker must merge the
// exact result stream the in-process path merges. (Experiment-level caches
// key on scenario parameters, not on Session, precisely because the two
// paths are interchangeable.)
func TestReplicateClusterMatchesInProcess(t *testing.T) {
	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
		Slots:    50,
		Collect:  sim.CollectOptions{Distance: true, Probabilities: true},
	}
	o := tinyOptions()
	fp := func(o Options) string {
		var sb strings.Builder
		err := o.replicate(o.replications(10, 77), cfg, func(run int, res *sim.Result) error {
			fmt.Fprintf(&sb, "%d:", run)
			for d := range res.Devices {
				fmt.Fprintf(&sb, "%x;", res.Devices[d].DownloadMb)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := fp(o)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go cluster.Serve(ln, cluster.WorkerOptions{})
	sess := cluster.NewSession([]string{ln.Addr().String()}, cluster.Options{})
	defer sess.Close()
	o.Session = sess
	if got := fp(o); got != want {
		t.Fatal("cluster replicate stream differs from in-process")
	}
}

// TestReplicateSessionMatchesInProcess pins the persistent-session hook:
// o.replicate with a Session configured must merge the exact result stream
// the in-process path merges, across several back-to-back batches on
// distinct streams — the experiment suite's shape — over one session.
func TestReplicateSessionMatchesInProcess(t *testing.T) {
	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
		Slots:    50,
		Collect:  sim.CollectOptions{Distance: true, Probabilities: true},
	}
	o := tinyOptions()
	fp := func(o Options, stream int64) string {
		var sb strings.Builder
		err := o.replicate(o.replications(8, 9000, stream), cfg, func(run int, res *sim.Result) error {
			fmt.Fprintf(&sb, "%d:", run)
			for d := range res.Devices {
				fmt.Fprintf(&sb, "%x;", res.Devices[d].DownloadMb)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	wants := []string{fp(o, 1), fp(o, 2), fp(o, 3)}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go cluster.Serve(ln, cluster.WorkerOptions{})
	sess := cluster.NewSession([]string{ln.Addr().String()}, cluster.Options{})
	defer sess.Close()
	o.Session = sess
	for i, want := range wants {
		if got := fp(o, int64(i+1)); got != want {
			t.Fatalf("session batch %d differs from the in-process stream", i+1)
		}
	}
}

// TestAblationRunsWithClusterConfigured pins the fallback: the ablation's
// PolicyFactory cannot cross the wire, so a configured cluster session must
// not break it — it silently runs in-process.
func TestAblationRunsWithClusterConfigured(t *testing.T) {
	o := tinyOptions()
	o.Runs = 2
	o.Seed = 424242 // unique cell: never cached by other tests
	// Nothing listens here; must not matter.
	sess := cluster.NewSession([]string{"127.0.0.1:1"}, cluster.Options{})
	defer sess.Close()
	o.Session = sess
	if _, err := runAblation(o); err != nil {
		t.Fatal(err)
	}
}

func TestAblationSmoke(t *testing.T) {
	o := tinyOptions()
	o.Runs = 2
	rep, err := runAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != len(ablationVariants()) {
		t.Fatalf("ablation rows %d, want %d", len(rep.Tables[0].Rows), len(ablationVariants()))
	}
}

func TestWildExperimentSmoke(t *testing.T) {
	o := tinyOptions()
	rep, err := runWild(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("wild table rows %d, want 2", len(rep.Tables[0].Rows))
	}
}

func TestTestbedExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed experiment uses wall-clock time")
	}
	o := tinyOptions()
	rep, err := runTable7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("tab7 rows %d, want 2", len(rep.Tables[0].Rows))
	}
	// fig13 reuses the cached static-testbed sweep, so it is cheap now.
	rep13, err := runFig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep13.Charts) != 1 {
		t.Fatalf("fig13 charts %d, want 1", len(rep13.Charts))
	}
}

func TestSwitchBoundFormula(t *testing.T) {
	// Theorem 2 with no reset: 3k log(T+1)/log(1+β).
	got := SwitchBound(3, 1200, 1, 0.1)
	if got < 600 || got > 700 {
		t.Fatalf("bound = %v, want ≈670", got)
	}
	// More reset periods multiply the bound.
	double := SwitchBound(3, 1200, 2, 0.1)
	if double != 2*got {
		t.Fatalf("bound not linear in reset periods: %v vs %v", double, got)
	}
}
