package runner

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smartexp3/internal/rngutil"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		hit := make([]int32, 100)
		err := ForEach(workers, len(hit), func(i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := ForEach(4, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want wrapped boom", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 1000 {
		t.Fatalf("ran %d tasks after failure, want early stop", n)
	}
}

func TestCollectOrdersResults(t *testing.T) {
	out := make([]int, 50)
	err := MergeOrdered(8, len(out), func(i int) (int, error) { return i * i, nil }, func(i, v int) error {
		out[i] = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMergeOrderedIsSequential: merge must see results in ascending run
// order, from one goroutine, for every worker count.
func TestMergeOrderedIsSequential(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var seen []int
		err := MergeOrdered(workers, 200,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if i != v {
					t.Fatalf("merge(%d, %d): index/value mismatch", i, v)
				}
				seen = append(seen, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range seen {
			if i != v {
				t.Fatalf("workers=%d: merge order %v... not ascending", workers, seen[:i+1])
			}
		}
	}
}

func TestMergeErrorPropagates(t *testing.T) {
	err := MergeOrdered(4, 10,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 5 {
				return fmt.Errorf("merge exploded")
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "merge exploded") {
		t.Fatalf("error %v, want merge failure", err)
	}
}

func TestReplicationsSeedsMatchChildSeeds(t *testing.T) {
	r := Replications{Runs: 4, Seed: 99, Stream: []int64{1, 2}}
	for run := 0; run < r.Runs; run++ {
		want := rngutil.ChildSeed(99, 1, 2, int64(run))
		if got := r.SeedFor(run); got != want {
			t.Fatalf("SeedFor(%d) = %d, want %d", run, got, want)
		}
	}
}

// TestSeedForMatchesListFormula pins SeedFor to the formula it replaced,
// ChildSeed over the stream ids with the run appended as one list, for
// empty, nil, short and long streams and extreme seeds and runs, and
// checks that it no longer allocates.
func TestSeedForMatchesListFormula(t *testing.T) {
	listFormula := func(r Replications, run int) int64 {
		ids := make([]int64, 0, len(r.Stream)+1)
		ids = append(ids, r.Stream...)
		ids = append(ids, int64(run))
		return rngutil.ChildSeed(r.Seed, ids...)
	}
	for _, r := range []Replications{
		{Seed: 99},
		{Seed: 99, Stream: []int64{}},
		{Seed: -1, Stream: []int64{7}},
		{Seed: math.MinInt64, Stream: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Seed: math.MaxInt64, Stream: []int64{math.MinInt64, 0, math.MaxInt64}},
	} {
		for _, run := range []int{0, 1, 17, 1 << 20, math.MaxInt32} {
			if got, want := r.SeedFor(run), listFormula(r, run); got != want {
				t.Errorf("seed %d stream %v run %d: SeedFor = %d, the list formula %d", r.Seed, r.Stream, run, got, want)
			}
		}
	}
	r := Replications{Seed: 3, Stream: []int64{4, 5}}
	if allocs := testing.AllocsPerRun(100, func() { r.SeedFor(6) }); allocs != 0 {
		t.Fatalf("SeedFor costs %.0f allocs", allocs)
	}
}

// replicatedAggregate is a miniature Monte Carlo experiment whose aggregate
// folds non-commutatively (string concatenation), so any deviation from
// serial run order is visible in the output bytes.
func replicatedAggregate(workers int) (string, error) {
	batch := Replications{Runs: 64, Workers: workers, Seed: 7, Stream: []int64{5}}
	var sb strings.Builder
	err := Merge(batch,
		func(run int, seed int64) (float64, error) {
			rng := rngutil.New(seed)
			var sum float64
			for i := 0; i < 1000; i++ {
				sum += rng.Float64()
			}
			return sum, nil
		},
		func(run int, v float64) error {
			fmt.Fprintf(&sb, "%d:%.12f;", run, v)
			return nil
		})
	return sb.String(), err
}

// TestParallelAggregateDeterminism is the runner's core guarantee: the same
// seed produces byte-identical aggregates at every worker count (run this
// package with `go test -race -cpu 1,8` to exercise both schedules).
func TestParallelAggregateDeterminism(t *testing.T) {
	base, err := replicatedAggregate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := replicatedAggregate(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("workers=%d aggregate differs from serial:\n%s\nvs\n%s", workers, got, base)
		}
	}
}

// TestMergeOrderedPooledStatePerWorker: every worker creates exactly one
// state, every run receives a state, and results still merge in ascending
// order.
func TestMergeOrderedPooledStatePerWorker(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var states int32
		var mergeNext int
		err := MergeOrderedPooled(workers, 64,
			func() *int32 {
				atomic.AddInt32(&states, 1)
				n := new(int32)
				return n
			},
			func(s *int32, i int) (int, error) {
				if s == nil {
					t.Error("run executed without worker state")
				}
				atomic.AddInt32(s, 1)
				return i, nil
			},
			func(i, v int) error {
				if i != mergeNext {
					t.Fatalf("merge out of order: %d, want %d", i, mergeNext)
				}
				mergeNext++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := atomic.LoadInt32(&states); int(n) > workers {
			t.Fatalf("workers=%d created %d states, want at most one per worker", workers, n)
		}
	}
}

// TestMergePooledDeterministicAcrossWorkers: a pooled aggregate (each worker
// reusing one accumulator state) is byte-identical for every worker count,
// mirroring how pooled simulation workspaces are used.
func TestMergePooledDeterministicAcrossWorkers(t *testing.T) {
	pooledAggregate := func(workers int) (string, error) {
		batch := Replications{Runs: 48, Workers: workers, Seed: 13, Stream: []int64{3}}
		var sb strings.Builder
		err := MergePooled(batch,
			func() []float64 { return make([]float64, 0, 64) }, // reused scratch
			func(scratch []float64, run int, seed int64) (float64, error) {
				rng := rngutil.New(seed)
				scratch = scratch[:0]
				for i := 0; i < 50; i++ {
					scratch = append(scratch, rng.Float64())
				}
				var sum float64
				for _, v := range scratch {
					sum += v
				}
				return sum, nil
			},
			func(run int, v float64) error {
				fmt.Fprintf(&sb, "%d:%.12f;", run, v)
				return nil
			})
		return sb.String(), err
	}
	base, err := pooledAggregate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := pooledAggregate(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("workers=%d pooled aggregate differs from serial", workers)
		}
	}
}

// TestGridCoversAllCells fans a rows×cols grid across the pool the way
// the experiment suite fans its cells, one ForEach index per cell, and
// checks every cell runs.
func TestGridCoversAllCells(t *testing.T) {
	const cols = 5
	var mu sync.Mutex
	seen := make(map[[2]int]bool)
	err := ForEach(4, 3*cols, func(i int) error {
		mu.Lock()
		seen[[2]int{i / cols, i % cols}] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 15 {
		t.Fatalf("covered %d cells, want 15", len(seen))
	}
}

// TestGroupComputesOnce: concurrent callers of the same key share one
// computation; a second key computes independently.
func TestGroupComputesOnce(t *testing.T) {
	var g Group[string, int]
	var calls int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Do("a", func() (int, error) {
				atomic.AddInt32(&calls, 1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
}

// TestGroupRetriesAfterError: failures are not cached.
func TestGroupRetriesAfterError(t *testing.T) {
	var g Group[int, int]
	if _, err := g.Do(1, func() (int, error) {
		return 0, errors.New("transient")
	}); err == nil {
		t.Fatal("want first call to fail")
	}
	v, err := g.Do(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = (%d, %v), want (7, nil)", v, err)
	}
}
