package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelWorkers runs fn(worker, i) for every i in [0,n): workers
// goroutines (0 → GOMAXPROCS, clamped to n) pull the next index from
// one shared counter. Each index runs exactly once, so a computation
// that depends only on its index is deterministic — what the sharded
// solve relies on for byte-identical configs at any worker count. The
// worker argument is a stable id in [0,workers) for lock-free
// worker-local scratch. fn must be safe for concurrent invocation
// across distinct indices; writes should go to index-disjoint slots.
func parallelWorkers(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0) // the caller is worker 0
	wg.Wait()
}

// parallelFor runs fn(0..n-1) on GOMAXPROCS workers and waits for all
// of them. If any calls fail, the error for the lowest index is returned
// — the one a serial loop would surface first — so failure is deterministic.
func parallelFor(n int, fn func(i int) error) error {
	var (
		mu       sync.Mutex
		firstIdx = math.MaxInt
		firstErr error
	)
	parallelWorkers(n, 0, func(_, i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}
