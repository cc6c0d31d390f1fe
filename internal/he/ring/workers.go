package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelMinN is the ring degree at or above which fanning independent
// transforms out across goroutines pays for the scheduling overhead; below
// it ForEach is a plain loop.
const ParallelMinN = 4096

// The package-level worker pool bounds fan-out concurrency: ForEach — the
// only sender — hands indices to a fixed set of workers over an unbuffered
// channel and runs whatever no worker can take immediately inline on the
// caller's goroutine. That makes nested fan-outs (serve.EvalPool workers
// × per-limb ForEach) safe by construction — the total goroutine count is
// pinned at the pool size no matter how deep the nesting, and a saturated
// pool degrades to inline execution instead of spawning. Both levels earn
// their keep on the 2-core reference box (ROADMAP item 1(c)): with the
// inner level forced inline affine-128k-solo lost a fifth of its
// throughput (p50 21 → 27 ms), while under matvec-128k-sat, where the
// outer level already fills both cores, the inner one degrades inline and
// costs nothing measurable.
//
// The pool is sized once at start-up — GOMAXPROCS−1 workers plus the
// submitting goroutine itself — so submission is a lock-free send on a
// channel that is never reassigned. On a single-core process there are no
// workers and every ForEach runs fully inline.
var (
	parTasks = make(chan parTask)

	// parInline counts indices that degraded to inline execution because no
	// pool worker could take them immediately — the saturation signal the
	// observability layer surfaces as quhe_ring_inline_degradations_total.
	parInline atomic.Int64
)

// parTask is one index of one fan-out, sent by value; with the wait group
// recycled, the only object a ForEach costs is its caller's closure.
type parTask struct {
	f  func(i int)
	i  int
	wg *sync.WaitGroup
}

// wgFree recycles fan-outs' wait groups (a stack one cannot be shared with
// the workers). A channel, not a sync.Pool, so the allocation gates read
// the same under -race, where a sync.Pool drops puts at random. It holds
// more than the goroutines any serving box fans out from at once; past
// that a fan-out allocates its own and the surplus is dropped.
var wgFree = make(chan *sync.WaitGroup, 64)

// InlineDegradations reports how many fan-out indices ran inline on the
// caller because the worker pool was saturated. Monotonic; a rising rate
// means fan-out is losing parallelism to pool contention.
func InlineDegradations() int64 { return parInline.Load() }

func init() {
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for t := range parTasks {
				t.f(t.i)
				t.wg.Done()
			}
		}()
	}
}

// ForEach runs f(i) for every i in [0, count) and returns when all have
// finished. Work on a ring of degree n < ParallelMinN, or a single index,
// runs serially in order on the caller. Otherwise indices 1..count−1 are
// offered to the bounded pool, any that no free worker picks up at once
// run on the caller, and index 0 always does — so ForEach never blocks
// waiting for capacity and nested calls cannot deadlock. Calls of f must
// not share mutable state (in particular, no RNG use — keep sampling
// outside fan-outs so results stay deterministic).
func ForEach(n, count int, f func(i int)) {
	if count <= 1 || n < ParallelMinN {
		for i := 0; i < count; i++ {
			f(i)
		}
		return
	}
	var wg *sync.WaitGroup
	select {
	case wg = <-wgFree:
	default:
		wg = new(sync.WaitGroup)
	}
	wg.Add(count - 1)
	for i := 1; i < count; i++ {
		select {
		case parTasks <- parTask{f, i, wg}:
		default:
			parInline.Add(1)
			f(i)
			wg.Done()
		}
	}
	f(0)
	wg.Wait()
	select {
	case wgFree <- wg:
	default:
	}
}
