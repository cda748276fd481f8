package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelWorkersEveryIndexExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {5, 1}, {100, 3}, {1000, 8}, {7, 16},
	} {
		counts := make([]int32, tc.n)
		parallelWorkers(tc.n, tc.workers, func(worker, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times, want exactly 1",
					tc.n, tc.workers, i, c)
			}
		}
	}
}

func TestParallelWorkersWorkerIDsStable(t *testing.T) {
	const n, workers = 200, 4
	var maxWorker int32 = -1
	parallelWorkers(n, workers, func(worker, i int) {
		if worker < 0 || worker >= workers {
			t.Errorf("worker id %d out of [0,%d)", worker, workers)
		}
		for {
			cur := atomic.LoadInt32(&maxWorker)
			if int32(worker) <= cur || atomic.CompareAndSwapInt32(&maxWorker, cur, int32(worker)) {
				break
			}
		}
	})
}

func TestParallelWorkersNoIdleUnderSkew(t *testing.T) {
	// Index 0 costs as much as all the others together: it returns only
	// once they are done, so a pool that had bound the rest of a range to
	// its worker would hang here. Each worker's first call waits for every
	// other worker to have made one, so no worker sits idle while indices
	// remain (n >= 4*workers).
	const n, workers = 64, 4
	var (
		arrived, done atomic.Int32
		first         [workers]bool // worker-local: only worker w touches first[w]
		allArrived    = make(chan struct{})
		othersDone    = make(chan struct{})
	)
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("timed out waiting for %s", what)
		}
	}
	parallelWorkers(n, workers, func(worker, i int) {
		if !first[worker] {
			first[worker] = true
			if arrived.Add(1) == workers {
				close(allArrived)
			}
			wait(allArrived, "every worker to take an index")
		}
		if i == 0 {
			wait(othersDone, "the other indices to finish around the slow one")
			return
		}
		if done.Add(1) == n-1 {
			close(othersDone)
		}
	})
	if arrived.Load() != workers || done.Load() != n-1 {
		t.Fatalf("%d of %d workers took an index, %d of %d fast indices ran",
			arrived.Load(), workers, done.Load(), n-1)
	}
}

func TestParallelForLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom")
	for range 20 { // repeat: error selection must not depend on scheduling
		err := parallelFor(100, func(i int) error {
			if i == 17 || i == 63 || i == 90 {
				return fmt.Errorf("%w at %d", wantErr, i)
			}
			return nil
		})
		if err == nil || !errors.Is(err, wantErr) {
			t.Fatalf("got %v, want wrapped boom", err)
		}
		if got := err.Error(); got != "boom at 17" {
			t.Fatalf("got error %q, want the lowest-index failure", got)
		}
	}
}

func TestParallelForNoError(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	if err := parallelFor(10, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("ran %d indices, want 10", len(seen))
	}
}
