package serve

import (
	"errors"
	"testing"
	"time"
)

// fairnessPool builds a one-worker pool whose workers carry no evaluator —
// scheduler fairness is about queue mechanics, not HE.
func fairnessPool() *EvalPool {
	return NewEvalPoolFunc(1, func(int) *Worker { return &Worker{} })
}

// TestSchedulerSharesProtectLightProfile is the starvation regression
// test: a heavy-profile flood that saturates its own queue share — with
// its single evaluator worker wedged — must neither shed nor delay a
// light profile's block. Before per-class drains, the heavy flood parked
// every drain goroutine behind the heavy pool and the light job waited
// behind the whole backlog.
func TestSchedulerSharesProtectLightProfile(t *testing.T) {
	heavy := fairnessPool()
	light := fairnessPool()
	sched := NewScheduler(heavy, 8)
	defer sched.Close()
	if hs, ls := share(sched, heavy), share(sched, light); hs != 0 || ls != 0 {
		t.Fatalf("shares %d/%d, want 0/0 (no pool holds a share before its first submission)", hs, ls)
	}
	// The light class registers by its first submission: from then on its
	// share is reserved, before the block that needs it arrives.
	first := make(chan struct{})
	if err := sched.SubmitTo(light, func(*Worker) { close(first) }); err != nil {
		t.Fatal(err)
	}
	<-first
	if hs, ls := share(sched, heavy), share(sched, light); hs != 0 || ls != 8 {
		t.Fatalf("shares %d/%d, want 0/8 (the one registered class holds the whole limit)", hs, ls)
	}

	// Wedge the heavy worker — registering the heavy class — then flood
	// the heavy class until it sheds.
	release := make(chan struct{})
	running := make(chan struct{})
	if err := sched.SubmitTo(heavy, func(*Worker) { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	if hs, ls := share(sched, heavy), share(sched, light); hs != 4 || ls != 4 {
		t.Fatalf("shares %d/%d, want 4/4 (limit 8, two classes)", hs, ls)
	}
	admitted := 0
	for ; admitted < 100; admitted++ {
		if err := sched.SubmitTo(heavy, func(*Worker) {}); err != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("unexpected submit error: %v", err)
			}
			break
		}
	}
	if admitted != 4 {
		t.Fatalf("heavy flood admitted %d queued jobs, want its share of 4", admitted)
	}

	// The light profile's block admits into its reserved share and
	// completes promptly — its own drain goroutines are not behind the
	// heavy backlog.
	done := make(chan struct{})
	if err := sched.SubmitTo(light, func(*Worker) { close(done) }); err != nil {
		t.Fatalf("light profile shed behind heavy flood: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("light-profile job starved behind heavy flood")
	}
	close(release)

	// Shares track the live limit and never fall below one slot.
	sched.Resize(4)
	if hs, ls := share(sched, heavy), share(sched, light); hs != 2 || ls != 2 {
		t.Errorf("resized shares %d/%d, want 2/2", hs, ls)
	}
	sched.Resize(1)
	if hs, ls := share(sched, heavy), share(sched, light); hs != 1 || ls != 1 {
		t.Errorf("floor shares %d/%d, want 1/1", hs, ls)
	}
}

// TestSchedulerShareAdmitsLateClass: a class created by its very first
// submission — while another class holds the entire queue — still
// admits, because shares are recomputed against the registered class
// set at every submit.
func TestSchedulerShareAdmitsLateClass(t *testing.T) {
	heavy := fairnessPool()
	light := fairnessPool()
	sched := NewScheduler(heavy, 4)
	defer sched.Close()

	release := make(chan struct{})
	running := make(chan struct{})
	if err := sched.SubmitTo(heavy, func(*Worker) { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	// Heavy owns the whole queue while it is the only class.
	for i := 0; i < 4; i++ {
		if err := sched.SubmitTo(heavy, func(*Worker) {}); err != nil {
			t.Fatalf("heavy fill %d: %v", i, err)
		}
	}
	if err := sched.SubmitTo(heavy, func(*Worker) {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("heavy overfill error = %v, want ErrOverloaded", err)
	}
	// The light class's first-ever submission registers it and lands in
	// its fresh share even though the queue total is at the limit.
	done := make(chan struct{})
	if err := sched.SubmitTo(light, func(*Worker) { close(done) }); err != nil {
		t.Fatalf("late class shed on arrival: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("late class job never ran")
	}
	close(release)
}

// TestSchedulerLonePoolAdmitsFullDepth: when only a pool other than the
// one the scheduler was built over serves, that pool's class holds the
// whole live depth — the idle build pool reserves nothing.
func TestSchedulerLonePoolAdmitsFullDepth(t *testing.T) {
	for _, depth := range []int{8, 6} {
		sched := NewScheduler(fairnessPool(), 8)
		sched.Resize(depth)
		other := fairnessPool()
		release := make(chan struct{})
		running := make(chan struct{})
		if err := sched.SubmitTo(other, func(*Worker) { close(running); <-release }); err != nil {
			t.Fatal(err)
		}
		<-running
		admitted := 0
		for ; admitted < 100; admitted++ {
			if err := sched.SubmitTo(other, func(*Worker) {}); err != nil {
				break
			}
		}
		close(release)
		sched.Close()
		if admitted != depth {
			t.Errorf("live depth %d: the lone serving pool queued %d jobs, want %d", depth, admitted, depth)
		}
	}
}

// share reports the pool's current queue share in slots (0 for a pool
// with no class yet) — the admission bound SubmitTo enforces for it.
func share(s *Scheduler, pool *EvalPool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.classes[pool] == nil {
		return 0
	}
	return s.shareLocked()
}
