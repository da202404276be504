// Package runner is the Monte Carlo execution engine of the reproduction:
// it fans replications and whole scenario grids across a bounded pool of
// goroutines while keeping every aggregate bit-for-bit independent of the
// worker count.
//
// # Determinism contract
//
// Parallel replication is only trustworthy if the aggregated output is a
// pure function of the seed. Two mechanisms guarantee that here:
//
//   - Each replication draws from its own RNG stream, derived with
//     rngutil.ChildSeed from (base seed, stream ids..., run index). Workers
//     never share generators, so the schedule cannot leak into the samples.
//   - Results are merged in ascending run order by a single merger
//     goroutine (MergeOrdered), never in completion order. Aggregates that
//     append to slices or fold non-commutatively therefore see runs in the
//     same order a serial loop would.
//
// Workers claim run indices from a shared counter and stall once they run
// a bounded window ahead of the merge frontier, so the reorder buffer holds
// O(workers) results even when one early run is much slower than the rest:
// memory stays O(workers), not O(runs).
//
// # Per-worker state
//
// The pooled variants (MergeOrderedPooled, MergePooled) hand every worker
// one private state object for its whole batch. This is how simulation
// batches run allocation-free: each worker owns one sim.Workspace, reused
// across all replications it executes, with no sync.Pool churn and no
// cross-goroutine sharing. Pooling does not weaken the determinism
// contract, because run results must not depend on which worker's state
// executed them — sim's Engine guarantees exactly that for workspaces.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"smartexp3/internal/rngutil"
)

// Workers normalizes a worker-count option: values below 1 mean GOMAXPROCS.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEach runs fn(0..n-1) on up to workers goroutines and returns the first
// error. Remaining indices are not started after an error.
func ForEach(workers, n int, fn func(i int) error) error {
	return MergeOrdered(workers, n,
		func(i int) (struct{}, error) { var z struct{}; return z, fn(i) },
		func(int, struct{}) error { return nil })
}

// indexed carries one replication's result to the merger.
type indexed[T any] struct {
	i   int
	v   T
	err error
}

// MergeOrdered runs do(0..n-1) on up to workers goroutines and applies
// merge(i, result) strictly in ascending i, from a single goroutine (merge
// needs no locking). It returns the first error from do or merge; after an
// error no further work is started and no further merges run.
func MergeOrdered[T any](workers, n int, do func(i int) (T, error), merge func(i int, v T) error) error {
	return MergeOrderedPooled(workers, n,
		func() struct{} { var z struct{}; return z },
		func(_ struct{}, i int) (T, error) { return do(i) },
		merge)
}

// MergeOrderedPooled is MergeOrdered with per-worker state: every worker
// goroutine calls newState exactly once and hands the state to each of its
// runs. This is the pooling primitive behind cheap Monte Carlo batches —
// a worker owns one simulation Workspace for its whole batch, so
// replications reuse buffers instead of allocating, with no sync.Pool
// churn and no cross-goroutine sharing. The determinism contract is
// unchanged: run i's result must not depend on which worker (and thus
// which state) executed it, which sim's Engine guarantees for workspaces.
func MergeOrderedPooled[S, T any](workers, n int, newState func() S, do func(s S, i int) (T, error), merge func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	m := metrics.Load()
	if m != nil {
		m.batches.Inc()
	}
	if workers == 1 {
		if m != nil {
			m.active.Add(1)
			defer m.active.Add(-1)
		}
		s := newState()
		for i := 0; i < n; i++ {
			v, err := do(s, i)
			if err != nil {
				return fmt.Errorf("runner: run %d: %w", i, err)
			}
			if m != nil {
				m.runs.Inc()
			}
			if err := merge(i, v); err != nil {
				return fmt.Errorf("runner: merge %d: %w", i, err)
			}
		}
		return nil
	}

	// window bounds how far workers may run ahead of the merge frontier,
	// which caps the reorder buffer at O(workers) results even when run
	// times are wildly heterogeneous (one slow early run must not let the
	// rest of the batch pile up in memory).
	window := 4 * workers
	var (
		next     int
		frontier int
		failed   bool
		mu       sync.Mutex
		wg       sync.WaitGroup
		results  = make(chan indexed[T], workers)
	)
	cond := sync.NewCond(&mu)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for {
			if failed || next >= n {
				return 0, false
			}
			if next-frontier < window {
				i := next
				next++
				return i, true
			}
			cond.Wait()
		}
	}
	fail := func() {
		mu.Lock()
		failed = true
		cond.Broadcast()
		mu.Unlock()
	}
	advance := func() {
		mu.Lock()
		frontier++
		cond.Broadcast()
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m != nil {
				m.active.Add(1)
				defer m.active.Add(-1)
			}
			s := newState()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				v, err := do(s, i)
				if err != nil {
					fail()
				} else if m != nil {
					m.runs.Inc()
				}
				results <- indexed[T]{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Single-goroutine merger: apply results in ascending run order via a
	// reorder buffer (bounded by window, see above).
	var (
		firstErr  error
		mergeNext int
		pending   = make(map[int]T, window)
	)
	for res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("runner: run %d: %w", res.i, res.err)
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		pending[res.i] = res.v
		for {
			v, ok := pending[mergeNext]
			if !ok {
				break
			}
			delete(pending, mergeNext)
			if err := merge(mergeNext, v); err != nil {
				firstErr = fmt.Errorf("runner: merge %d: %w", mergeNext, err)
				fail()
				break
			}
			mergeNext++
			advance()
		}
	}
	return firstErr
}

// Replications describes one batch of seeded Monte Carlo replications: Runs
// repetitions of the same scenario, each on its own RNG stream derived from
// Seed and the optional Stream namespace ids.
type Replications struct {
	// Runs is the number of replications.
	Runs int
	// Workers bounds parallelism; 0 or less means GOMAXPROCS.
	Workers int
	// Seed is the batch's base seed.
	Seed int64
	// Stream namespaces the batch (for example setting and algorithm ids)
	// so distinct batches under one base seed never share streams.
	Stream []int64
}

// SeedFor returns the independent child seed of the given replication:
// ChildSeed(r.Seed, r.Stream..., run), computed as two ChildSeed steps,
// which fold the same ids into the same bits without building their list.
func (r Replications) SeedFor(run int) int64 {
	return rngutil.ChildSeed(rngutil.ChildSeed(r.Seed, r.Stream...), int64(run))
}

// Merge runs do once per replication in parallel and folds the results into
// merge in ascending run order (see MergeOrdered).
func Merge[T any](r Replications, do func(run int, seed int64) (T, error), merge func(run int, v T) error) error {
	return MergeOrdered(r.Workers, r.Runs,
		func(run int) (T, error) { return do(run, r.SeedFor(run)) },
		merge)
}

// MergePooled is Merge with per-worker state (see MergeOrderedPooled): the
// standard shape for running a batch of simulation replications through one
// compiled sim Engine, with each worker owning one reusable Workspace.
func MergePooled[S, T any](r Replications, newState func() S, do func(s S, run int, seed int64) (T, error), merge func(run int, v T) error) error {
	return MergeOrderedPooled(r.Workers, r.Runs, newState,
		func(s S, run int) (T, error) { return do(s, run, r.SeedFor(run)) },
		merge)
}

// Group deduplicates concurrent identical computations and caches their
// results for the life of the process — the experiment suite's scenario
// caches. Unlike a plain mutex-guarded map, concurrent callers of the same
// key block on one in-flight computation instead of racing to repeat it.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*groupEntry[V]
}

type groupEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the cached value for key, computing it with compute if
// necessary. Exactly one caller computes; the others wait. A failed
// computation is not cached, so a later caller retries.
func (g *Group[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*groupEntry[V])
	}
	if e, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-e.done
		return e.v, e.err
	}
	e := &groupEntry[V]{done: make(chan struct{})}
	g.m[key] = e
	g.mu.Unlock()

	e.v, e.err = compute()
	if e.err != nil {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
	}
	close(e.done)
	return e.v, e.err
}
