// Package experiments regenerates every table and figure of the QuHE
// paper's evaluation (§VI): the optimality study (Fig. 3), per-stage
// convergence traces (Fig. 4), runtime and method comparisons (Fig. 5),
// resource sweeps (Fig. 6) and the Stage-1 solution tables (Tables V–VI).
//
// Each regenerator returns a structured result plus the data needed to
// print the same rows/series the paper reports; the render helpers produce
// ASCII tables and sparkline-style series for terminals and logs.
package experiments

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the worker count used when an Options.Workers is zero.
func DefaultWorkers() int {
	n := runtime.NumCPU()
	if n < 1 {
		return 1
	}
	return n
}

// parallelMap runs f(0..n-1) on up to workers goroutines and returns the
// first error (all tasks still run to completion).
func parallelMap(n, workers int, f func(i int) error) error {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
