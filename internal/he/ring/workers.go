package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelMinN is the ring degree at or above which fanning independent
// transforms out across goroutines pays for the scheduling overhead.
// Callers gate on it explicitly so small-ring paths stay allocation-free
// (submitting to the pool heap-allocates the closures).
const ParallelMinN = 4096

// The package-level worker pool bounds fan-out concurrency: Parallel hands
// tasks to a fixed set of workers over an unbuffered channel and runs
// whatever no worker can take immediately inline on the caller's
// goroutine. That makes nested Parallel calls (evaluator component fan-out
// × per-limb fan-out) safe by construction — the total goroutine count is
// pinned at the pool size no matter how deep the nesting, and a saturated
// pool degrades to inline execution instead of spawning.
//
// The pool is sized once at start-up — GOMAXPROCS−1 workers plus the
// submitting goroutine itself — so task submission is a lock-free send on
// a channel that is never reassigned. On a single-core process there are
// no workers and every Parallel call runs fully inline.
var (
	parTasks = make(chan func())

	// parInline counts tasks that degraded to inline execution because no
	// pool worker could take them immediately — the saturation signal the
	// observability layer surfaces as quhe_ring_inline_degradations_total.
	parInline atomic.Int64
)

// InlineDegradations reports how many Parallel tasks ran inline on the
// caller because the worker pool was saturated. Monotonic; a rising rate
// means fan-out is losing parallelism to pool contention.
func InlineDegradations() int64 { return parInline.Load() }

func init() {
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for f := range parTasks {
				f()
			}
		}()
	}
}

// Parallel runs the given independent tasks on the bounded pool and waits
// for all of them, executing the first on the calling goroutine. Tasks no
// free worker can pick up immediately also run on the caller, so Parallel
// never blocks waiting for capacity and nested calls cannot deadlock.
// Tasks must not share mutable state (in particular, no RNG use — keep
// sampling outside parallel sections so results stay deterministic).
func Parallel(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	for _, task := range tasks[1:] {
		f := task
		wg.Add(1)
		wrapped := func() {
			defer wg.Done()
			f()
		}
		select {
		case parTasks <- wrapped:
		default:
			parInline.Add(1)
			wrapped()
		}
	}
	tasks[0]()
	wg.Wait()
}

// ParallelIf runs the tasks via Parallel when the ring degree n warrants it
// (n ≥ ParallelMinN) and serially in order otherwise. Note the variadic
// call materializes the task closures either way; allocation-sensitive
// callers should branch on ParallelMinN themselves.
func ParallelIf(n int, tasks ...func()) {
	if n >= ParallelMinN {
		Parallel(tasks...)
		return
	}
	for _, t := range tasks {
		t()
	}
}
