// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced replication counts (one benchmark per experiment id; run
// `reproduce -list` for the catalog), plus micro-benchmarks of the hot
// paths. Seeds vary per iteration so the experiment caches cannot
// short-circuit the work.
//
// Run with: go test -bench=. -benchmem
package smartexp3_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"smartexp3"
	"smartexp3/internal/cluster"
	"smartexp3/internal/core"
	"smartexp3/internal/experiment"
	"smartexp3/internal/fleet"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/obsv"
	"smartexp3/internal/rngutil"
	"smartexp3/internal/runner"
	"smartexp3/internal/serve"
	"smartexp3/internal/sim"
)

// benchOptions are Quick()-scale options with a seed namespaced per
// experiment id: iteration seeds never collide across benchmarks, so the
// shared experiment caches cannot make another benchmark's iterations look
// free (which would let testing.B ramp b.N into hours of fresh work).
func benchOptions(id string, iteration int) experiment.Options {
	o := experiment.Quick()
	var h int64
	for _, c := range id {
		h = h*131 + int64(c)
	}
	o.Seed = h*1_000_003 + int64(iteration) + 1
	return o
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	def, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := def.Run(benchOptions(id, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Section VI-A: static synthetic settings.

func BenchmarkFig2Switches(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3Stability(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkTable4TimeToStable(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkFig4Distance(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkTable5Download(b *testing.B)       { benchExperiment(b, "tab5") }
func BenchmarkUnutilized(b *testing.B)           { benchExperiment(b, "unutil") }
func BenchmarkFig5Fairness(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6Scalability(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7Join(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8Leave(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9Mobility(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10SwitchesDynamic(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Robustness(b *testing.B)      { benchExperiment(b, "fig11") }

// Section VI-B: trace-driven simulation.

func BenchmarkTable6Traces(b *testing.B)     { benchExperiment(b, "tab6") }
func BenchmarkFig12TraceSeries(b *testing.B) { benchExperiment(b, "fig12") }

// Section VII-A: controlled experiments over real TCP (wall-clock bound).

func BenchmarkTable7Testbed(b *testing.B)       { benchExperiment(b, "tab7") }
func BenchmarkFig13TestbedStatic(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14TestbedDynamic(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15TestbedMixed(b *testing.B)   { benchExperiment(b, "fig15") }

// Section VII-B and analysis.

func BenchmarkWildDownload(b *testing.B)   { benchExperiment(b, "wild") }
func BenchmarkTheorem2Bound(b *testing.B)  { benchExperiment(b, "thm2") }
func BenchmarkTheorem3Regret(b *testing.B) { benchExperiment(b, "thm3") }
func BenchmarkAblation(b *testing.B)       { benchExperiment(b, "ablate") }

// Micro-benchmarks of the hot paths.

// BenchmarkPolicySlot measures one Select+Observe cycle of Smart EXP3.
func BenchmarkPolicySlot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pol, err := smartexp3.NewPolicy(smartexp3.AlgSmartEXP3, []int{0, 1, 2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	gains := []float64{0.2, 0.4, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Observe(gains[pol.Select()])
	}
}

// BenchmarkSmartEXP3Draw isolates the per-slot selection draw — the Fast
// EXP3 hot path: incremental weight maintenance plus the O(log k)
// weight-proportional sample — across arm counts. EXP3 features (every
// block a single slot) maximize draw frequency so the benchmark measures
// the draw itself, not block bookkeeping.
func BenchmarkSmartEXP3Draw(b *testing.B) {
	for _, k := range []int{3, 16, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			available := make([]int, k)
			gains := make([]float64, k)
			for i := range available {
				available[i] = i
				gains[i] = float64(i%10) / 10
			}
			pol := core.NewSmartEXP3("bench", core.FeaturesFor(core.AlgEXP3),
				available, core.DefaultConfig(), rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol.Observe(gains[pol.Select()])
			}
		})
	}
}

// BenchmarkRunnerReplications measures the parallel experiment runner end
// to end: fanning seeded replications of a small Setting 1 simulation over
// the worker pool and merging results in deterministic run order. The
// config is compiled into a sim.Engine once per batch and each worker owns
// one pooled workspace — the standard batch shape since the zero-allocation
// engine; the per-op work (8 seeded replications of a 5-device, 120-slot
// Setting 1 run) is unchanged from the pre-engine baseline in
// BENCH_runner.json, so ns/op and allocs/op are directly comparable.
func BenchmarkRunnerReplications(b *testing.B) {
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := runner.Replications{
					Runs:    8,
					Workers: workers,
					Seed:    int64(i + 1),
					Stream:  []int64{42},
				}
				var downloads float64
				err := sim.Replicate(batch,
					sim.Config{
						Topology: netmodel.Setting1(),
						Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
						Slots:    120,
					},
					func(_ int, res *sim.Result) error {
						for d := range res.Devices {
							downloads += res.Devices[d].DownloadMb
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterSession measures the per-batch cost on a warm persistent
// session: the worker was dialed, handshaken and connected once before the
// timer started, so each op pays only the session-multiplexed dispatch —
// the range frames, each carrying the job's seeding and config, and the
// fixed-layout result stream for the same 8-replication Setting 1 batch as
// BenchmarkRunnerReplications/workers=1, so the difference between the two
// rows is the per-batch cost of going through the cluster layer instead of
// the in-process pool. The dial + handshake happen once per session, which
// is the whole point of the layer: the experiment suite's many small
// batches pay them once instead of per batch.
func BenchmarkClusterSession(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go cluster.Serve(ln, cluster.WorkerOptions{Workers: 1})

	cfg := sim.Config{
		Topology: netmodel.Setting1(),
		Devices:  sim.UniformDevices(5, core.AlgSmartEXP3),
		Slots:    120,
	}
	sess := cluster.NewSession([]string{ln.Addr().String()}, cluster.Options{})
	defer sess.Close()
	runBatch := func(seed int64) error {
		batch := runner.Replications{Runs: 8, Seed: seed, Stream: []int64{42}}
		job, err := cluster.NewJob(batch, cfg)
		if err != nil {
			return err
		}
		var downloads float64
		return sess.Run(job, func(_ int, res *sim.Result) error {
			for d := range res.Devices {
				downloads += res.Devices[d].DownloadMb
			}
			return nil
		})
	}
	if err := runBatch(1); err != nil { // warm the session and the worker's engine pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runBatch(int64(i + 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimReplication measures one warm replication through a pooled
// workspace across population scales: 10 devices on Setting 1, and 100/500
// devices spread over generated multi-area metropolitan topologies (the
// 500-device case runs on the 204-network `large` preset). Steady-state
// allocs/op must stay flat — a handful of objects for the returned Result
// plus epoch bookkeeping, regardless of scale or replication count.
func BenchmarkSimReplication(b *testing.B) {
	cases := []struct {
		devices int
		topo    netmodel.Topology
	}{
		{10, netmodel.Setting1()},
		{100, netmodel.Generate(netmodel.GenSpec{Areas: 10, APsPerArea: 3, Cells: 2, Overlap: 1})},
		{500, netmodel.Large()},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("devices=%d", c.devices), func(b *testing.B) {
			devs := sim.SpreadDevices(c.devices, core.AlgSmartEXP3, len(c.topo.Areas))
			eng, err := sim.NewEngine(sim.Config{
				Topology: c.topo,
				Devices:  devs,
				Slots:    200,
			})
			if err != nil {
				b.Fatal(err)
			}
			ws := eng.NewWorkspace()
			if _, err := eng.Run(ws, 1); err != nil { // warm the workspace
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ws, int64(i+2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSourceSeed reseeds one warm per-device generator: the fixed
// cost every device pays at the start of every replication and on every
// serve join. Seed computes no ring word, only the conditioned seed, so
// this is that O(1) step; the first 333 draws compute the words they sum
// from the seed (BenchmarkSourceSeedDraws). Each iteration seeds with a
// fresh ChildSeed, as the simulator does; the gate holds it at 0
// allocs/op.
func BenchmarkSourceSeed(b *testing.B) {
	src := rngutil.NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Seed(rngutil.ChildSeed(7, int64(i)))
	}
}

// BenchmarkSourceSeedDraws reseeds one generator and draws 128 Int63 from
// it, about a Setting 1 device's mean per replication: the whole cost of a fresh
// stream's use, each draw's seeded words computed from the seed among
// them. The gate holds it at 0 allocs/op.
func BenchmarkSourceSeedDraws(b *testing.B) {
	src := rngutil.NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Seed(rngutil.ChildSeed(7, int64(i)))
		for k := 0; k < 128; k++ {
			src.Int63()
		}
	}
}

// BenchmarkSourceDraw draws Int63 from one warm generator, its ring long
// since seeded: the fast path every draw after the first 334 takes. It
// draws through the rand.Source interface, as rand.Rand makes every draw
// the policies and samplers consume. The gate holds it at 0 allocs/op.
func BenchmarkSourceDraw(b *testing.B) {
	var src rand.Source = rngutil.NewSource(1)
	for k := 0; k < 1000; k++ {
		src.Int63()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Int63()
	}
}

// BenchmarkServeSelect measures the decision service's hot path in
// process: one warm Select+Feedback cycle against the sharded device store
// (shard routing, device lookup, pending-slot bookkeeping and the Fast
// EXP3 draw). The device is warm — past explore-first, availability
// unchanged — which is the steady state a long-lived daemon serves, and
// the path the BENCH_runner.json gate holds to ≤ 1 alloc/op (it measures
// 0). The reported decisions/s is single-goroutine; see
// BenchmarkServeSelectParallel for the sharded fan-out.
func BenchmarkServeSelect(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm: past explore-first and pool growth
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// churnSets are the arm sets bench/'s serve-churn workload draws from, and
// churnDevices its device population.
var churnSets = [...][]int{{0, 1, 2}, {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9, 11}, {0, 1, 2, 3, 4, 5, 6, 7}}

const churnDevices = 8192

// churnDecide makes one decision for dev over arms: a Select and its
// Feedback.
func churnDecide(b *testing.B, store *serve.Store, dev uint64, arms []int) {
	arm, slot, err := store.Select(dev, arms)
	if err != nil {
		b.Fatal(err)
	}
	store.Feedback(dev, arm, slot, float64(arm%5+1)/6)
}

// churnWarmOps is how many ascending-order decisions warmChurnStore makes:
// three passes over every device per arm set, so every device is past
// explore-first and has held the largest set.
const churnWarmOps = 3 * len(churnSets) * churnDevices

// warmChurnStore returns a store built from cfg holding churnDevices warm
// devices: decision i goes to device i mod churnDevices, which moves to
// the next of churnSets each pass.
func warmChurnStore(b *testing.B, cfg serve.Config) *serve.Store {
	store, err := serve.NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < churnWarmOps; i++ {
		churnDecide(b, store, uint64(i%churnDevices), churnArms(i))
	}
	return store
}

// churnArms is the arm set of the ith ascending-order decision.
func churnArms(i int) []int { return churnSets[(i/churnDevices+i%churnDevices)%len(churnSets)] }

// BenchmarkServeSelectChurn is BenchmarkServeSelect under mobility: one
// Select+Feedback per op over 8,192 warm devices, each moving to the next
// of the four arm sets bench/'s serve-churn workload draws from, so every
// decision re-indexes the device's policy (SetAvailable) before the draw.
// The device state outgrows the CPU caches, as it does in a daemon, but
// the devices are visited in ascending id order, so the hardware
// prefetcher hides part of each miss; BenchmarkServeSelectChurnRandom
// visits them as the workload does. The BENCH_runner.json gate holds it to
// 0 allocs/op.
func BenchmarkServeSelectChurn(b *testing.B) {
	store := warmChurnStore(b, serve.Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := churnWarmOps + n
		churnDecide(b, store, uint64(i%churnDevices), churnArms(i))
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkServeSelectChurnRandom is BenchmarkServeSelectChurn in the order
// bench/'s serve-churn workload decides: each op draws its device and its
// arm set from a seeded stream, so consecutive decisions land on unrelated
// device records and no prefetcher can hide the misses. The draws cost a
// few ns of the op. The BENCH_runner.json gate holds it to 0 allocs/op.
func BenchmarkServeSelectChurnRandom(b *testing.B) {
	store := warmChurnStore(b, serve.Config{Seed: 1})
	draws := rngutil.NewSource(rngutil.ChildSeed(1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		dev := draws.Uint64() % churnDevices
		churnDecide(b, store, dev, churnSets[draws.Uint64()%uint64(len(churnSets))])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkStoreSnapshot captures a warm store of 8,192 devices on 8
// shards, each device churned through the four arm sets bench/'s
// serve-churn workload draws from: the store and shard count that
// workload snapshots twice per window. The BENCH_runner.json gate holds
// allocs/op to a count that grows with the shard count, not the device
// count. kept-B/op is what one snapshot still holds after a collection,
// the floor B/op is measured against.
func BenchmarkStoreSnapshot(b *testing.B) {
	store := warmChurnStore(b, serve.Config{Seed: 1, Shards: 8})
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	sn := store.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	kept := float64(ms.HeapAlloc) - float64(before)
	runtime.KeepAlive(sn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn = store.Snapshot()
	}
	b.StopTimer()
	if len(sn.Devices) != churnDevices {
		b.Fatalf("snapshot holds %d devices, want %d", len(sn.Devices), churnDevices)
	}
	b.ReportMetric(kept, "kept-B/op")
}

// BenchmarkSnapshotCodec writes BenchmarkStoreSnapshot's snapshot out and
// reads it back: one op is Encode into a retained buffer plus ReadSnapshot
// of the bytes, the work of one checkpoint and one boot restore short of
// the disk. The BENCH_runner.json gate holds allocs/op to what ReadSnapshot
// keeps: one string per device record, its index, and a few fixed buffers.
func BenchmarkSnapshotCodec(b *testing.B) {
	store := warmChurnStore(b, serve.Config{Seed: 1, Shards: 8})
	sn := store.Snapshot()
	var buf bytes.Buffer
	if err := sn.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sn.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		back, err := serve.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(back.Devices) != churnDevices {
			b.Fatalf("read back %d devices, want %d", len(back.Devices), churnDevices)
		}
	}
}

// BenchmarkServeSelectInstrumented is BenchmarkServeSelect with the obsv
// registry attached — the observability layer's perf contract: the warm
// path must stay at 0 allocs/op and within a few percent of the bare rate
// (per-shard counters are plain increments under the already-held lock; the
// latency probe samples 1 in 64 requests).
func BenchmarkServeSelectInstrumented(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	store.Instrument(obsv.NewRegistry())
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm: past explore-first and pool growth
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkFleetSelect is BenchmarkServeSelect with a fleet peer wrapped
// around the store: the partition-table ownership check (one atomic view
// load plus a rendezvous-free stripe index per request) now guards every
// Select and Feedback. This is the owning-peer steady state of a sharded
// fleet, and the BENCH_runner.json gate holds it to 0 allocs/op — joining
// a fleet must not cost the daemon its allocation-free hot path.
func BenchmarkFleetSelect(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	peer, err := fleet.NewPeer(store, fleet.PeerOptions{ID: "a"})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := fleet.NewTable(fleet.DefaultStripeBits, []fleet.PeerInfo{{ID: "a", Addr: "a:1", Control: "a:2"}})
	if err != nil {
		b.Fatal(err)
	}
	if err := peer.InstallTable(tab); err != nil {
		b.Fatal(err)
	}
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	for i := 0; i < 300; i++ { // warm: past explore-first and pool growth
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, slot, err := store.Select(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		store.Feedback(7, arm, slot, gains[arm])
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "decisions/s")
	}
}

// BenchmarkServeSelectParallel drives the store from GOMAXPROCS goroutines
// over disjoint warm devices — the daemon's saturated shape. The headline
// metric is decisions/s/core: per-shard mutexes mean it should hold near
// the serial rate instead of collapsing onto one lock.
func BenchmarkServeSelectParallel(b *testing.B) {
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	procs := runtime.GOMAXPROCS(0)
	for dev := uint64(0); dev < uint64(procs); dev++ { // warm every goroutine's device
		for i := 0; i < 300; i++ {
			arm, slot, err := store.Select(dev, arms)
			if err != nil {
				b.Fatal(err)
			}
			store.Feedback(dev, arm, slot, gains[arm])
		}
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dev := (next.Add(1) - 1) % uint64(procs)
		for pb.Next() {
			arm, slot, err := store.Select(dev, arms)
			if err != nil {
				b.Error(err)
				return
			}
			store.Feedback(dev, arm, slot, gains[arm])
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs/float64(procs), "decisions/s/core")
	}
}

// serveWireClient serves a fresh store on loopback TCP from an in-process
// Server, dials it, warms one device (and with it the codec and the
// connection buffers) and returns that device's Select+Feedback.
func serveWireClient(b *testing.B) (decide func()) {
	b.Helper()
	store, err := serve.NewStore(serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(store, serve.ServerOptions{})
	go srv.Serve(ln)
	c, err := serve.Dial(ln.Addr().String(), serve.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		ln.Close()
		srv.Close()
	})
	arms := []int{0, 1, 2, 3}
	gains := []float64{0.2, 0.4, 0.9, 0.5}
	decide = func() {
		arm, slot, err := c.SelectSlot(7, arms)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.FeedbackSlot(7, arm, slot, gains[arm]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		decide()
	}
	return decide
}

// BenchmarkServeWire measures one Select+Feedback decision round trip
// through the full stack — client batching, the serve codec in checksummed
// frames both ways, the server's connection loop, the store — over
// loopback TCP, and reports the p99 per-decision latency alongside the
// mean. Warm, the whole round trip allocates nothing; allocs/op is gated.
func BenchmarkServeWire(b *testing.B) {
	decide := serveWireClient(b)
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		decide()
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns/op")
	}
}

// BenchmarkServeRoundTrip is BenchmarkServeWire without the per-decision
// clock reads: one warm Select+Feedback over loopback TCP to an in-process
// Server, the row to set against BenchmarkLoopbackEcho when attributing a
// wire decision's cost. It allocates nothing; allocs/op is gated.
func BenchmarkServeRoundTrip(b *testing.B) {
	decide := serveWireClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide()
	}
}

// BenchmarkLoopbackEcho is the floor under BenchmarkServeRoundTrip: one
// 32-byte write and its echo read back over loopback TCP, with no framing,
// codec, deadline or store.
func BenchmarkLoopbackEcho(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEXP3Slot measures the classic EXP3 per-slot cost for comparison.
func BenchmarkEXP3Slot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pol, err := smartexp3.NewPolicy(smartexp3.AlgEXP3, []int{0, 1, 2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	gains := []float64{0.2, 0.4, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Observe(gains[pol.Select()])
	}
}

// BenchmarkSimulationRun measures a full 20-device, 1200-slot Setting 1 run
// with metric collection — the unit of work behind every Section VI figure.
func BenchmarkSimulationRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.Simulate(smartexp3.SimConfig{
			Topology: smartexp3.Setting1(),
			Devices:  smartexp3.UniformDevices(20, smartexp3.AlgSmartEXP3),
			Slots:    1200,
			Seed:     int64(i + 1),
			Collect:  smartexp3.CollectOptions{Distance: true, Probabilities: true},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNashSolver measures the congestion-game solver on the Figure 1
// heterogeneous-availability instance.
func BenchmarkNashSolver(b *testing.B) {
	top := smartexp3.FoodCourt()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		smartexp3.NashCounts(top.Bandwidths(), 20)
	}
}

// BenchmarkTraceRun measures one 100-slot trace-driven selection run.
func BenchmarkTraceRun(b *testing.B) {
	pair := smartexp3.PaperTracePairs(1)[2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.RunTrace(smartexp3.TraceRunConfig{
			Pair:      pair,
			Algorithm: smartexp3.AlgSmartEXP3,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWildRun measures one in-the-wild download emulation.
func BenchmarkWildRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.RunWild(smartexp3.WildConfig{
			FileMB:    100,
			Algorithm: smartexp3.AlgSmartEXP3,
			Seed:      int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedSlot measures testbed wall-clock throughput (slots/sec) at
// a tiny scale; it is dominated by real socket time by design.
func BenchmarkTestbedSlot(b *testing.B) {
	if testing.Short() {
		b.Skip("testbed uses wall-clock time")
	}
	for i := 0; i < b.N; i++ {
		_, err := smartexp3.RunTestbed(smartexp3.TestbedConfig{
			APs: []smartexp3.Network{
				{Name: "a", Type: smartexp3.WiFi, Bandwidth: 4},
				{Name: "b", Type: smartexp3.WiFi, Bandwidth: 12},
			},
			Devices: []smartexp3.TestbedDeviceSpec{
				{Algorithm: smartexp3.AlgSmartEXP3},
				{Algorithm: smartexp3.AlgSmartEXP3},
				{Algorithm: smartexp3.AlgGreedy},
			},
			Slots:        10,
			SlotDuration: 20 * time.Millisecond,
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
