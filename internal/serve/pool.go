package serve

import (
	"sync/atomic"

	"quhe/internal/he/ckks"
)

// Worker is one checkout unit of the evaluator pool: a CKKS evaluator
// (whose internal scratch buffers make it single-goroutine) plus optional
// per-worker state the pool's owner attached at construction — the edge
// server attaches a *transcipher.Scratch so coefficient expansion reuses
// buffers across blocks. A Worker is exclusively owned between Get and
// Put.
type Worker struct {
	Ev *ckks.Evaluator
	// Scratch is caller-defined per-worker state (may be nil).
	Scratch any
	// idx is the index the pool built the worker at (Renew rebuilds it).
	idx int
}

// EvalPool is a fixed-size pool of Workers over one shared CKKS context.
// N sessions share Size() evaluators, so evaluator memory and compute
// parallelism are bounded by the pool, not by the session count. Get
// blocks until a worker is free. The Scheduler runs one drain goroutine
// per worker, each checking out through Run, so in the serving path a
// checkout never waits: the Scheduler's bounded queue, not Get, is the
// backpressure.
//
// Workers are built lazily: construction registers a build function and
// the pool's capacity, and each worker's evaluator and scratch come into
// existence on its first checkout. A pool for a security profile no
// session ever uses therefore costs a struct, not Size() evaluators —
// which is what lets the edge server give every profile runtime its own.
type EvalPool struct {
	ch    chan *Worker
	build func(i int) *Worker
	next  atomic.Int32
	size  int32
	// label, when non-empty, is the quhe_profile pprof label value the
	// Scheduler's drain goroutines for this pool carry (set once at
	// construction time, before the pool is published).
	label string
}

// NewEvalPool builds a pool of size workers over ctx. Each worker's
// evaluator is seeded with seed+i (evaluator RNG streams stay distinct);
// scratch, when non-nil, is invoked once per worker to attach per-worker
// state. Workers materialize on first checkout.
func NewEvalPool(ctx *ckks.Context, size int, seed int64, scratch func(i int) any) *EvalPool {
	return NewEvalPoolFunc(size, func(i int) *Worker {
		w := &Worker{Ev: ckks.NewEvaluator(ctx, seed+int64(i))}
		if scratch != nil {
			w.Scratch = scratch(i)
		}
		return w
	})
}

// NewEvalPoolFunc builds a pool of size workers materialized lazily by
// build (which must be safe for concurrent calls with distinct indices).
func NewEvalPoolFunc(size int, build func(i int) *Worker) *EvalPool {
	if size < 1 {
		size = 1
	}
	return &EvalPool{ch: make(chan *Worker, size), build: build, size: int32(size)}
}

// Size returns the fixed number of workers.
func (p *EvalPool) Size() int { return int(p.size) }

// Built reports how many workers have been materialized so far.
func (p *EvalPool) Built() int { return int(p.next.Load()) }

// InUse reports the workers currently checked out — the evaluator-pool
// utilization gauge the edge server's registry reads.
func (p *EvalPool) InUse() int { return int(p.next.Load()) - len(p.ch) }

// Get checks a worker out, blocking until one is free. While unbuilt
// capacity remains, a fresh worker is constructed instead of waiting.
func (p *EvalPool) Get() *Worker {
	select {
	case w := <-p.ch:
		return w
	default:
	}
	for {
		n := p.next.Load()
		if n >= p.size {
			break
		}
		if p.next.CompareAndSwap(n, n+1) {
			w := p.build(int(n))
			w.idx = int(n)
			return w
		}
	}
	return <-p.ch
}

// Renew rebuilds a checked-out worker's evaluator and scratch in place,
// as the pool first built them: a job that panicked may have left them
// half-written.
func (p *EvalPool) Renew(w *Worker) {
	fresh := p.build(w.idx)
	w.Ev, w.Scratch = fresh.Ev, fresh.Scratch
}

// Put returns a worker obtained from Get.
func (p *EvalPool) Put(w *Worker) { p.ch <- w }

// SetProfileLabel attaches a pprof label value (the security profile ID)
// to the pool: the Scheduler's drain goroutines for it run under the
// quhe_profile label, so CPU and goroutine profiles split eval time by
// profile. Call before the pool is shared; not synchronized.
func (p *EvalPool) SetProfileLabel(id string) { p.label = id }

// Run executes job with an exclusively held worker, blocking for
// checkout. It sets no label: a job runs under its caller's.
func (p *EvalPool) Run(job func(*Worker)) {
	w := p.Get()
	defer p.Put(w)
	job(w)
}
