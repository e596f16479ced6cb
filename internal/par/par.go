// Package par provides small, dependency-free parallel execution helpers
// used throughout the repository: a bounded parallel-for over index ranges
// and a work-stealing-free chunked variant for cache-friendly loops.
//
// All helpers preserve determinism of the computation they run: they only
// parallelize across disjoint index ranges, so any function whose per-index
// work is independent yields identical results regardless of GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
)

// MaxWorkers returns the number of workers the helpers use by default:
// the current GOMAXPROCS setting.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// ForWorkers runs f(i) for every i in [0, n) on up to workers goroutines;
// workers <= 1 runs inline. Each index is dispatched individually; use
// ForChunked when per-index work is tiny.
func ForWorkers(n, workers int, f func(i int)) {
	ForWorkersScratch(n, workers, func() struct{} { return struct{}{} }, func(struct{}) {},
		func(_ struct{}, i int) { f(i) })
}

// ForWorkersScratch is ForWorkers for loops whose iterations want reusable
// per-worker scratch: each worker acquires one scratch value via get before
// its first index and releases it via put after its last, so n iterations
// touch at most `workers` scratch values no matter how large n is. Callers
// typically back get/put with a sync.Pool so scratch also survives across
// calls (the forest trainer reuses builder state across trees, objectives,
// and active-learning refits this way).
//
// The index→worker assignment is scheduling-dependent, so f must overwrite
// any scratch state it reads — determinism of the results then follows from
// f being a pure function of its index, exactly as with ForWorkers.
func ForWorkersScratch[T any](n, workers int, get func() T, put func(T), f func(sc T, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := get()
		for i := 0; i < n; i++ {
			f(sc, i)
		}
		put(sc)
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := get()
			defer put(sc)
			for i := range next {
				f(sc, i)
			}
		}()
	}
	wg.Wait()
}

// ForChunked splits [0, n) into contiguous chunks, one per worker, and runs
// f(lo, hi) on each. It suits loops whose per-index cost is small and uniform
// (image rows, voxel slabs).
func ForChunked(n int, f func(lo, hi int)) {
	ForChunkedWorkers(n, MaxWorkers(), f)
}

// ForChunkedWorkers is ForChunked with an explicit worker count; workers <= 0
// selects MaxWorkers. It lets callers with their own concurrency budget (the
// active-learning loop's Workers option) bound chunked sweeps too.
func ForChunkedWorkers(n, workers int, f func(lo, hi int)) {
	if workers <= 0 {
		workers = MaxWorkers()
	}
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			defer wg.Done()
			if lo < hi {
				f(lo, hi)
			}
		}(lo, hi)
	}
	wg.Wait()
}
