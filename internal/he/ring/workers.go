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

// The package-level worker pool runs fan-out work on idle cores. A
// ForEach publishes one shared index counter; its caller and every helper
// it got claim the next unclaimed index until none is left, so four limbs
// split two and two on two cores however the helper's start lines up with
// the caller's. A helper is offered only to an idle core: the package
// counts the goroutines running fan-out work — callers inside a parallel
// ForEach plus helpers — and offers one only while that count is below
// GOMAXPROCS, and only to a worker parked at that instant. So nested
// fan-outs (serve.EvalPool workers × per-limb ForEach) never oversubscribe
// the cores: when eval workers already fill them, as under
// matvec-128k-sat, every fan-out runs inline on its caller and waits for
// no one. On a 2-core Xeon, claiming plus the transcipher's row fan-outs
// took affine-128k-solo's latency_p50_ms from 10.27 to 8.91 ms (medians
// of ten alternating runs a side, every pair a win) with matvec-128k-sat
// flat; the pool before it offered each index once, to whichever worker
// was parked at that instant, and so ran a 4-limb form 3/1 between caller
// and worker.
//
// The pool is sized once at start-up — GOMAXPROCS−1 workers plus the
// submitting goroutine itself — so an offer is a lock-free send on a
// channel that is never reassigned. On a single-core process there are no
// workers and every ForEach runs fully inline.
var (
	parTasks = make(chan *fanOut)
	parProcs = int32(runtime.GOMAXPROCS(0))

	// parBusy counts the goroutines running fan-out work: callers inside
	// a parallel ForEach plus helpers, each helper from the moment its
	// core is reserved.
	parBusy atomic.Int32

	// parInline counts fan-outs that got no helper because every core was
	// busy or no worker was parked — the saturation signal the
	// observability layer surfaces as quhe_ring_inline_degradations_total.
	parInline atomic.Int64
)

// fanOut is one parallel ForEach: the index counter its participants
// claim from, the helpers still running, and the first panic one of them
// recovered.
type fanOut struct {
	f     func(i int)
	count int64
	next  atomic.Int64
	wg    sync.WaitGroup

	mu       sync.Mutex
	panicked any
}

// fanFree recycles fan-outs, so the only object a ForEach costs is its
// caller's closure. A channel, not a sync.Pool, so the allocation gates
// read the same under -race, where a sync.Pool drops puts at random. It
// holds more than the goroutines any serving box fans out from at once;
// past that a fan-out allocates its own and the surplus is dropped.
var fanFree = make(chan *fanOut, 64)

// InlineDegradations reports how many fan-outs ran wholly on their caller
// because no core was idle to help. Monotonic; a rising rate means
// fan-out is losing parallelism to saturation.
func InlineDegradations() int64 { return parInline.Load() }

func init() {
	for i := int32(1); i < parProcs; i++ {
		go func() {
			for fo := range parTasks {
				fo.claim()
				parBusy.Add(-1)
				fo.wg.Done()
			}
		}()
	}
}

// ForEach runs f(i) for every i in [0, count) and returns when all have
// finished. Work on a ring of degree n < ParallelMinN, or a single index,
// runs serially in order on the caller. Otherwise the caller offers
// helpers to idle cores and then claims indices alongside them; it never
// waits for capacity, only for helpers already running its indices, so
// nested calls cannot deadlock. A panic in f stops the fan-out's claims
// and is raised again on the caller once every helper has stopped; the
// pool's workers survive it. Calls of f must not share mutable state (in
// particular, no RNG use — keep sampling outside fan-outs so results stay
// deterministic).
func ForEach(n, count int, f func(i int)) {
	if count <= 1 || n < ParallelMinN {
		for i := 0; i < count; i++ {
			f(i)
		}
		return
	}
	var fo *fanOut
	select {
	case fo = <-fanFree:
	default:
		fo = new(fanOut)
	}
	fo.f, fo.count = f, int64(count)
	parBusy.Add(1)
	fo.offerHelpers()
	fo.claim()
	fo.wg.Wait()
	parBusy.Add(-1)
	p := fo.panicked
	fo.f, fo.panicked = nil, nil
	fo.next.Store(0)
	select {
	case fanFree <- fo:
	default:
	}
	if p != nil {
		panic(p)
	}
}

// offerHelpers hands the fan-out to parked workers, one per index past
// the caller's, while a core is idle: each offer first reserves a core in
// parBusy, and an offer no worker takes at once ends the offering.
func (fo *fanOut) offerHelpers() {
	helpers := int64(0)
	for helpers < fo.count-1 {
		b := parBusy.Load()
		if b >= parProcs {
			break
		}
		if !parBusy.CompareAndSwap(b, b+1) {
			continue
		}
		fo.wg.Add(1)
		select {
		case parTasks <- fo:
			helpers++
			continue
		default:
		}
		fo.wg.Done()
		parBusy.Add(-1)
		break
	}
	if helpers == 0 {
		parInline.Add(1)
	}
}

// claim runs the fan-out's next unclaimed index until none is left. A
// panic in f is recorded, the remaining indices are withdrawn from every
// participant, and claim returns.
func (fo *fanOut) claim() {
	defer func() {
		if r := recover(); r != nil {
			fo.mu.Lock()
			if fo.panicked == nil {
				fo.panicked = r
			}
			fo.mu.Unlock()
			fo.next.Store(fo.count)
		}
	}()
	for {
		i := fo.next.Add(1) - 1
		if i >= fo.count {
			return
		}
		fo.f(int(i))
	}
}
