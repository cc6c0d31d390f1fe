package serve

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBuildsWorkersLazily(t *testing.T) {
	ctx := testContext(t)
	var built atomic.Int64
	pool := NewEvalPool(ctx, 4, 1, func(i int) any { built.Add(1); return i })
	if got := built.Load(); got != 0 {
		t.Fatalf("%d workers built at construction, want 0 (lazy)", got)
	}
	if pool.Built() != 0 {
		t.Fatalf("Built = %d at construction", pool.Built())
	}
	w := pool.Get()
	if built.Load() != 1 || pool.Built() != 1 {
		t.Errorf("first checkout built %d workers (gauge %d), want 1", built.Load(), pool.Built())
	}
	if pool.InUse() != 1 {
		t.Errorf("InUse = %d with one worker out", pool.InUse())
	}
	pool.Put(w)
	if pool.InUse() != 0 {
		t.Errorf("InUse = %d after Put", pool.InUse())
	}
	// A recycled worker is reused before new capacity materializes.
	w2 := pool.Get()
	if built.Load() != 1 {
		t.Errorf("checkout with a free worker built another (%d total)", built.Load())
	}
	pool.Put(w2)
}

// TestDrainCarriesProfileLabel: while a job on a labelled pool blocks, the
// goroutine profile shows the drain running it under the pool's
// quhe_profile label, which the drain took once, when it started. A
// profile can miss a goroutine that changes state as it is taken, so the
// test reads it until the job's own frame shows (at most 100 times) and
// looks for the label on that goroutine's record.
func TestDrainCarriesProfileLabel(t *testing.T) {
	pool := NewEvalPoolFunc(1, func(int) *Worker { return &Worker{} })
	pool.SetProfileLabel("label-probe")
	s := NewScheduler(pool, 4)
	defer s.Close()
	running, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	if err := s.SubmitTo(pool, func(*Worker) { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	const frame = "serve.TestDrainCarriesProfileLabel.func"
	var b bytes.Buffer
	for range 100 {
		b.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
			t.Fatal(err)
		}
		for _, rec := range bytes.Split(b.Bytes(), []byte("\n\n")) {
			if !bytes.Contains(rec, []byte(frame)) {
				continue
			}
			if want := `"quhe_profile":"label-probe"`; !bytes.Contains(rec, []byte(want)) {
				t.Errorf("the blocked job's goroutine has no %s label:\n%s", want, rec)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("no goroutine profile of 100 shows the blocked job's frame %q; the last:\n%s", frame, b.String())
}

func TestSchedulerSubmitToRoutesPools(t *testing.T) {
	ctx := testContext(t)
	def := NewEvalPool(ctx, 1, 1, func(i int) any { return "default" })
	alt := NewEvalPool(ctx, 1, 100, func(i int) any { return "alt" })
	sched := NewScheduler(def, 8)
	defer sched.Close()

	got := make(chan string, 2)
	if err := sched.SubmitTo(def, func(w *Worker) { got <- w.Scratch.(string) }); err != nil {
		t.Fatal(err)
	}
	if err := sched.SubmitTo(alt, func(w *Worker) { got <- w.Scratch.(string) }); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{<-got: true, <-got: true}
	if !seen["default"] || !seen["alt"] {
		t.Errorf("jobs ran on %v, want both pools", seen)
	}
}

// TestSchedulerConcurrentSubmitsRunOnce: four submitters racing on one
// class against the depth bound must run every job that was accepted,
// exactly once.
func TestSchedulerConcurrentSubmitsRunOnce(t *testing.T) {
	ctx := testContext(t)
	pool := NewEvalPool(ctx, 2, 1, nil)
	sched := NewScheduler(pool, 16)
	if sched.Capacity() != 16 {
		t.Fatalf("capacity %d, want 16", sched.Capacity())
	}

	var accepted, ran, shed atomic.Int64
	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < 500; i++ {
				err := sched.SubmitTo(pool, func(*Worker) { ran.Add(1) })
				if err == nil {
					accepted.Add(1)
				} else if errors.Is(err, ErrOverloaded) {
					shed.Add(1)
				} else {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	submitters.Wait()
	sched.Close()
	if ran.Load() != accepted.Load() {
		t.Errorf("accepted %d jobs but ran %d", accepted.Load(), ran.Load())
	}
	if accepted.Load() == 0 {
		t.Error("no job was ever accepted")
	}
	t.Logf("accepted %d, shed %d", accepted.Load(), shed.Load())
}

func TestSessionCarriesProfile(t *testing.T) {
	sess := NewSession("s", "lambda-64k", nil, nil, nil, nil)
	if sess.Profile != "lambda-64k" {
		t.Errorf("Profile = %q", sess.Profile)
	}
}
