package serve

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Job is one unit of homomorphic work. The scheduler hands it an
// exclusively held worker; the job owns reply delivery (it typically
// captures the connection writer).
type Job func(*Worker)

// Scheduler fans jobs out across evaluator pools through bounded
// per-pool queues. Each distinct pool submitted to gets its own queue
// class with its own drain goroutines (one per pool worker), registered
// by the pool's first submission, so a class blocked on its pool's
// workers never wedges another class's dispatch: a flood of
// heavy-profile blocks cannot park every drain goroutine behind the heavy
// pool and starve light-profile latency.
//
// Queue space is divided into equal shares of the depth the scheduler
// was built with, its one bound: each of the k registered classes may
// hold at most depth/k queued jobs (minimum one). A pool that has never
// been submitted to holds no share, so a lone served profile gets the
// whole depth, and once a second profile's first block registers its
// class, each keeps a guaranteed reservation of the queue that the other
// cannot flood away. A submission beyond its class share fails fast with
// ErrOverloaded — the explicit backpressure signal the protocol layer
// forwards to clients instead of buffering requests without limit.
type Scheduler struct {
	capacity int // the built depth bound

	mu      sync.Mutex
	classes map[*EvalPool]*classQueue
	closed  bool
	wg      sync.WaitGroup
}

// classQueue is one pool's slice of the scheduler: a bounded queue. Its
// channel is built at the scheduler's full capacity so shares can shrink
// as new classes register without reallocating; admission control
// happens against depth, never against channel occupancy, so the send in
// SubmitTo never blocks.
type classQueue struct {
	pool  *EvalPool
	depth atomic.Int64
	ch    chan Job
}

// NewScheduler builds a scheduler over a queue of the given depth (≤ 0
// selects 4× the pool's size). No class exists until a pool's first
// submission.
func NewScheduler(pool *EvalPool, queueDepth int) *Scheduler {
	if queueDepth <= 0 {
		queueDepth = 4 * pool.Size()
	}
	return &Scheduler{capacity: queueDepth, classes: make(map[*EvalPool]*classQueue)}
}

// classLocked returns the pool's queue class, creating it — and starting
// its drain goroutines, one per pool worker — on first use. Callers hold
// s.mu.
func (s *Scheduler) classLocked(pool *EvalPool) *classQueue {
	if c := s.classes[pool]; c != nil {
		return c
	}
	c := &classQueue{pool: pool, ch: make(chan Job, s.capacity)}
	s.classes[pool] = c
	for i := 0; i < pool.Size(); i++ {
		s.wg.Add(1)
		go s.drain(c)
	}
	return c
}

// shareLocked computes a class's queue share: an equal part of the
// built depth, at least one slot. Callers hold s.mu.
func (s *Scheduler) shareLocked() int {
	return max(s.capacity/len(s.classes), 1)
}

// drain runs one class's jobs on its pool until Close. A drain serves one
// pool for its whole life, so it takes the pool's profile label once, at
// start, and every job it runs is attributed to that profile.
func (s *Scheduler) drain(c *classQueue) {
	defer s.wg.Done()
	if c.pool.label != "" {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("quhe_profile", c.pool.label)))
	}
	for job := range c.ch {
		c.depth.Add(-1)
		c.pool.Run(job)
	}
}

// SubmitTo enqueues a job to run on a worker of the given pool without
// blocking. It returns ErrOverloaded when the pool's queue share is full
// or the scheduler is closed.
func (s *Scheduler) SubmitTo(pool *EvalPool, job Job) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrOverloaded
	}
	c := s.classLocked(pool)
	if int(c.depth.Load()) >= s.shareLocked() {
		s.mu.Unlock()
		return ErrOverloaded
	}
	c.depth.Add(1)
	// Send under the lock: the channel holds capacity ≥ share slots so
	// this never blocks, and Close (which also takes the lock) can never
	// close the channel under the send.
	c.ch <- job
	s.mu.Unlock()
	return nil
}

// QueueDepth reports the jobs currently waiting (not yet picked up)
// across all classes, summed from the class depths.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.classes {
		n += int(c.depth.Load())
	}
	return n
}

// Capacity reports the queue depth bound the scheduler was built with.
func (s *Scheduler) Capacity() int { return s.capacity }

// Close stops intake, runs the jobs already queued to completion and
// waits for the drain goroutines to exit. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, c := range s.classes {
		close(c.ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
