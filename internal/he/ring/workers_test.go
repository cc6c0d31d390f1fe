package ring

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's ID, parsed from its stack header,
// so a test can tell whether an index ran on the caller or on a helper.
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// helperJoins fails t unless some fan-out, retried while the pool's
// workers settle, runs an index on a goroutine other than its caller.
func helperJoins(t *testing.T) {
	t.Helper()
	me := goid()
	for try := 0; try < 100; try++ {
		var helped atomic.Bool
		ForEach(ParallelMinN, 8, func(int) {
			if goid() != me {
				helped.Store(true)
			}
			time.Sleep(50 * time.Microsecond)
		})
		if helped.Load() {
			return
		}
	}
	t.Fatal("no helper joined a fan-out in 100 tries on an idle pool")
}

// TestForEach pins the fan-out contract: every index runs exactly once on
// both sides of ParallelMinN, and a nested ForEach under a saturated pool
// completes on its caller instead of waiting for a worker, each of its
// fan-outs counted once by InlineDegradations as one that got no helper.
func TestForEach(t *testing.T) {
	for _, n := range []int{ParallelMinN / 2, ParallelMinN} {
		for _, count := range []int{0, 1, 2, 8, 33} {
			hits := make([]atomic.Int32, count)
			ForEach(n, count, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("n=%d count=%d: index %d ran %d times", n, count, i, got)
				}
			}
		}
	}

	// Saturate the pool: park every worker on a fan-out whose indices
	// block until release, each core reserved as an offer reserves it. A
	// send completes only once a worker has taken the fan-out. With no
	// core idle and no worker parked, every fan-out of a two-deep ForEach
	// has to run on this goroutine — none may wait for capacity.
	release := make(chan struct{})
	parked := &fanOut{f: func(int) { <-release }, count: int64(parProcs - 1)}
	for w := int32(1); w < parProcs; w++ {
		parBusy.Add(1)
		parked.wg.Add(1)
		parTasks <- parked
	}
	before := InlineDegradations()
	inner := 0
	ForEach(ParallelMinN, 3, func(int) {
		ForEach(ParallelMinN, 4, func(int) { inner++ })
	})
	close(release)
	parked.wg.Wait()
	if inner != 12 {
		t.Errorf("nested ForEach ran %d inner indices, want 12", inner)
	}
	// One outer fan-out and three inner ones, none of which got a helper.
	if got := InlineDegradations() - before; got != 1+3 {
		t.Errorf("InlineDegradations rose by %d under a saturated pool, want 4", got)
	}
	if b := parBusy.Load(); b != 0 {
		t.Errorf("%d goroutines still counted busy after the pool drained", b)
	}
}

// TestForEachCoreBudget: while fan-out work already fills every core, a
// ForEach gets no helper even with every worker parked — all its indices
// run on its caller — and is counted once as a fan-out that got none;
// once the cores free up, the busy count is back to 0 and helpers join
// again.
func TestForEachCoreBudget(t *testing.T) {
	// GOMAXPROCS callers each park in an index of their own fan-out; any
	// index a helper claims ends after a millisecond, so the helpers are
	// done and their workers parked again while the callers stay busy.
	release := make(chan struct{})
	entered := make([]atomic.Int32, parProcs)
	var callers sync.WaitGroup
	for c := range entered {
		callers.Add(1)
		go func() {
			defer callers.Done()
			me := goid()
			ForEach(ParallelMinN, 4, func(int) {
				if goid() != me {
					time.Sleep(time.Millisecond)
					return
				}
				entered[c].Add(1)
				<-release
			})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c := range entered {
		for entered[c].Load() == 0 || parBusy.Load() != parProcs {
			if time.Now().After(deadline) {
				t.Fatalf("callers never settled: caller %d entered %d indices, %d goroutines busy", c, entered[c].Load(), parBusy.Load())
			}
			runtime.Gosched()
		}
	}
	me, before := goid(), InlineDegradations()
	var elsewhere atomic.Int32
	ForEach(ParallelMinN, 16, func(int) {
		if goid() != me {
			elsewhere.Add(1)
		}
		time.Sleep(50 * time.Microsecond)
	})
	degraded := InlineDegradations() - before
	close(release)
	callers.Wait()
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("%d indices ran on a helper while every core was busy", n)
	}
	if degraded != 1 {
		t.Errorf("InlineDegradations rose by %d for one helperless fan-out, want 1", degraded)
	}
	if b := parBusy.Load(); b != 0 {
		t.Errorf("%d goroutines still counted busy after every fan-out returned", b)
	}
	if parProcs > 1 {
		helperJoins(t)
	}
}

// TestForEachNestedUnderContention runs nested ForEach calls from eight
// goroutines at once while a probe records how many indices of one
// fan-out run at once: never more than GOMAXPROCS (the caller and one
// helper per idle core), every index exactly once, and the busy count
// back to 0 at the end. Run under -race in CI.
func TestForEachNestedUnderContention(t *testing.T) {
	const goroutines, rounds, outer, inner = 8, 40, 3, 4
	var worst atomic.Int64
	enter := func(running *atomic.Int64) {
		n := running.Add(1)
		for w := worst.Load(); n > w && !worst.CompareAndSwap(w, n); w = worst.Load() {
		}
	}
	var done sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for r := 0; r < rounds; r++ {
				hits := make([]atomic.Int32, outer*inner)
				var outerRunning atomic.Int64
				ForEach(ParallelMinN, outer, func(i int) {
					enter(&outerRunning)
					var innerRunning atomic.Int64
					ForEach(ParallelMinN, inner, func(j int) {
						enter(&innerRunning)
						hits[i*inner+j].Add(1)
						runtime.Gosched()
						innerRunning.Add(-1)
					})
					outerRunning.Add(-1)
				})
				for k := range hits {
					if got := hits[k].Load(); got != 1 {
						t.Errorf("goroutine %d round %d: index %d ran %d times", g, r, k, got)
					}
				}
			}
		}()
	}
	done.Wait()
	if w := worst.Load(); w > int64(parProcs) {
		t.Errorf("%d indices of one fan-out ran at once, GOMAXPROCS is %d", w, parProcs)
	}
	t.Logf("at most %d indices of one fan-out ran at once (GOMAXPROCS %d)", worst.Load(), parProcs)
	if b := parBusy.Load(); b != 0 {
		t.Errorf("%d goroutines still counted busy after every fan-out returned", b)
	}
}

// TestForEachPanicReachesCaller: an index that panics on a helper stops
// the fan-out, and ForEach raises the panic on its caller once every
// helper has stopped; the pool's worker survives, so the next ForEach
// runs every index once and still gets a helper.
func TestForEachPanicReachesCaller(t *testing.T) {
	if parProcs < 2 {
		t.Skip("a single-core process has no pool workers")
	}
	const msg = "index panicked on a helper"
	me := goid()
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("no helper joined a fan-out in 100 tries on an idle pool")
		}
		var onHelper atomic.Bool
		got := func() (r any) {
			defer func() { r = recover() }()
			ForEach(ParallelMinN, 4, func(int) {
				if goid() != me {
					onHelper.Store(true)
					panic(msg)
				}
				for deadline := time.Now().Add(10 * time.Millisecond); !onHelper.Load() && time.Now().Before(deadline); {
					runtime.Gosched()
				}
			})
			return nil
		}()
		if !onHelper.Load() {
			if got != nil {
				t.Fatalf("caller recovered %v with no index run on a helper", got)
			}
			continue
		}
		if got != msg {
			t.Fatalf("caller recovered %v, want %q", got, msg)
		}
		break
	}
	if b := parBusy.Load(); b != 0 {
		t.Errorf("%d goroutines still counted busy when the panic reached the caller", b)
	}
	hits := make([]atomic.Int32, 33)
	ForEach(ParallelMinN, len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("after the panic: index %d ran %d times", i, got)
		}
	}
	helperJoins(t)
}

// TestForEachAllocs: a parallel ForEach reuses its fan-out, so with the
// caller's closure built once it allocates nothing.
func TestForEachAllocs(t *testing.T) {
	var sum atomic.Int64
	f := func(i int) { sum.Add(int64(i)) }
	run := func() { ForEach(ParallelMinN, 8, f) }
	run() // warm the fan-out free list
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("ForEach allocates %v objects per call beyond its closure, want 0", allocs)
	}
}
