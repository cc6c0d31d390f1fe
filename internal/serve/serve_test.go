package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"quhe/internal/he/ckks"
)

func testContext(t testing.TB) *ckks.Context {
	t.Helper()
	p, err := ckks.NewParams(8, 25, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestCodeRoundTrip(t *testing.T) {
	// Every row of the table: code ↔ sentinel ↔ name, each used once.
	names := map[string]Code{}
	sentinels := map[error]Code{}
	known := 0
	for c := Code(0); int(c) < NumCodes; c++ {
		if !c.Known() {
			continue
		}
		known++
		if got := CodeOf(c.Err()); got != c {
			t.Errorf("CodeOf(%v.Err()) = %v", c, got)
		}
		if prev, dup := sentinels[c.Err()]; dup || (c == CodeOK) != (c.Err() == nil) {
			t.Errorf("code %v: sentinel %v (also code %v)", c, c.Err(), prev)
		}
		sentinels[c.Err()] = c
		if prev, dup := names[c.String()]; dup || c.String() == "unknown" || c.String() == "" {
			t.Errorf("code %d named %q (also code %d)", c, c.String(), prev)
		}
		names[c.String()] = c
	}
	if known != 15 {
		t.Errorf("%d known codes, want 15", known)
	}
	// Codes are wire values: the retired slots keep their numbers so
	// nothing after them moved, and they — like any value outside the
	// table — read as unknown codes that travel as ErrInternal.
	if CodeProfileDenied != 11 || CodeDeadline != 13 || CodeKeyExhausted != 14 ||
		CodeMatVecUnavailable != 17 || NumCodes != 18 {
		t.Errorf("codes renumbered: profile-denied %d deadline %d key-exhausted %d matvec-unavailable %d of %d",
			CodeProfileDenied, CodeDeadline, CodeKeyExhausted, CodeMatVecUnavailable, NumCodes)
	}
	for _, c := range []Code{12, 15, 16, -1, Code(NumCodes), 999} {
		if c.Known() || c.Err() != ErrInternal || c.String() != "unknown" {
			t.Errorf("code %d: known %v, err %v, name %q; want unknown → ErrInternal", c, c.Known(), c.Err(), c.String())
		}
	}
	if CodeOf(nil) != CodeOK {
		t.Error("CodeOf(nil) != CodeOK")
	}
	if CodeOK.Err() != nil {
		t.Error("CodeOK.Err() != nil")
	}
	// Wrapped sentinels still map, and foreign errors degrade to internal.
	if CodeOf(fmt.Errorf("ctx: %w", ErrOverloaded)) != CodeOverloaded {
		t.Error("wrapped sentinel lost its code")
	}
	if CodeOf(errors.New("other")) != CodeInternal {
		t.Error("foreign error should map to CodeInternal")
	}
}

func TestStoreRegisterAndDuplicate(t *testing.T) {
	st := NewStore(0)
	if err := st.Register(NewSession("a", "", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	err := st.Register(NewSession("a", "", nil, nil, nil, nil))
	if !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if _, ok := st.Get("a"); !ok {
		t.Fatal("session lost")
	}
}

// TestStoreRemoveByIdentity holds Remove to the session it is handed: a
// session evicted and re-registered under its ID survives the removal of
// the old one, and a removal is not counted as an eviction.
func TestStoreRemoveByIdentity(t *testing.T) {
	st := NewStore(1)
	old := NewSession("a", "", nil, nil, nil, nil)
	if err := st.Register(old); err != nil {
		t.Fatal(err)
	}
	if err := st.Register(NewSession("b", "", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	again := NewSession("a", "", nil, nil, nil, nil)
	if err := st.Register(again); err != nil {
		t.Fatal(err)
	}
	if st.Remove(old) {
		t.Error("removing the evicted session removed its successor")
	}
	if got, ok := st.Peek("a"); !ok || got != again {
		t.Fatal("the re-registered session is gone")
	}
	if !st.Remove(again) || st.Len() != 0 {
		t.Errorf("Remove of the resident session: %d left", st.Len())
	}
	if st.Evictions() != 2 {
		t.Errorf("evictions = %d, want 2 (removals are not evictions)", st.Evictions())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	st := NewStore(2)
	for _, id := range []string{"a", "b"} {
		if err := st.Register(NewSession(id, "", nil, nil, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := st.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if err := st.Register(NewSession("c", "", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := st.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := st.Get("c"); !ok {
		t.Error("c should be resident")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
	if st.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions())
	}

	// At any cap the store is built with, the cap is exact: the table
	// evicts nothing before the cap, holds exactly the cap from then on,
	// and each eviction takes the least-recently-used session.
	rng := rand.New(rand.NewSource(39))
	for _, limit := range []int{4, 16} {
		st := NewStore(limit)
		ids := make([]string, limit+4)
		for i := range ids {
			ids[i] = fmt.Sprintf("%016x", rng.Uint64())
			if err := st.Register(NewSession(ids[i], "", nil, nil, nil, nil)); err != nil {
				t.Fatal(err)
			}
			if i == len(ids)-2 {
				st.Get(ids[3]) // the oldest resident becomes the most recently used
			}
			resident := min(i+1, limit)
			if st.Len() != resident || st.Evictions() != int64(i+1-resident) {
				t.Fatalf("cap %d, %d registered: Len %d, Evictions %d; want %d, %d",
					limit, i+1, st.Len(), st.Evictions(), resident, i+1-resident)
			}
		}
		for i, id := range ids {
			// The first three are the LRU victims, then the fifth: the
			// touched fourth survives the last registration.
			if _, ok := st.Peek(id); ok != (i == 3 || i > 4) {
				t.Errorf("cap %d: session %d (of %d) resident = %v", limit, i, len(ids), ok)
			}
		}
	}
}

func TestStorePeekDoesNotTouchLRU(t *testing.T) {
	st := NewStore(2)
	for _, id := range []string{"a", "b"} {
		if err := st.Register(NewSession(id, "", nil, nil, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Peek "a": unlike Get, this must leave "a" as the LRU victim.
	if _, ok := st.Peek("a"); !ok {
		t.Fatal("a missing")
	}
	if _, ok := st.Peek("ghost"); ok {
		t.Fatal("phantom session")
	}
	if err := st.Register(NewSession("c", "", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Peek("a"); ok {
		t.Error("a survived eviction despite being LRU (Peek touched the list)")
	}
	if _, ok := st.Peek("b"); !ok {
		t.Error("b should have survived")
	}
}

func TestStoreConcurrent(t *testing.T) {
	st := NewStore(0)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("s-%d-%d", g, i)
				sess := NewSession(id, "", nil, nil, nil, []byte(id))
				if err := st.Register(sess); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				got, ok := st.Get(id)
				if !ok || got.ID != id {
					t.Errorf("get %s failed", id)
					return
				}
				got.RecordBlock(64)
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != goroutines*perG {
		t.Errorf("Len = %d, want %d", st.Len(), goroutines*perG)
	}
}

func TestSessionRekeyAndStats(t *testing.T) {
	sess := NewSession("s", "", nil, nil, nil, []byte("n1"))
	if sess.RecordBlock(100) != 100 {
		t.Error("RecordBlock accounting off")
	}
	sess.RecordBlock(50)
	if got := sess.BytesSinceRekey(); got != 150 {
		t.Errorf("BytesSinceRekey = %d, want 150", got)
	}
	if epoch := sess.Rekey(nil, []byte("n2")); epoch != 2 {
		t.Errorf("epoch after rekey = %d, want 2", epoch)
	}
	if got := sess.BytesSinceRekey(); got != 0 {
		t.Errorf("BytesSinceRekey after rekey = %d, want 0", got)
	}
	st := sess.Stats()
	if st.Blocks != 2 || st.Bytes != 150 || st.Rekeys != 1 || st.Epoch != 2 {
		t.Errorf("stats = %+v", st)
	}
	_, nonce, _ := sess.Keys()
	if string(nonce) != "n2" {
		t.Errorf("nonce = %q, want n2", nonce)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	ctx := testContext(t)
	const size = 2
	pool := NewEvalPool(ctx, size, 1, nil)
	if pool.Size() != size {
		t.Fatalf("Size = %d", pool.Size())
	}
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Run(func(w *Worker) {
				if w.Ev == nil {
					t.Error("worker without evaluator")
				}
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > size {
		t.Errorf("peak concurrency %d exceeds pool size %d", p, size)
	}
}

func TestPoolScratchAttachment(t *testing.T) {
	ctx := testContext(t)
	pool := NewEvalPool(ctx, 2, 1, func(i int) any { return i })
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		w := pool.Get()
		seen[w.Scratch.(int)] = true
		defer pool.Put(w)
	}
	if len(seen) != 2 {
		t.Errorf("scratch not distinct per worker: %v", seen)
	}
}

func TestSchedulerBackpressure(t *testing.T) {
	ctx := testContext(t)
	pool := NewEvalPool(ctx, 1, 1, nil)
	sched := NewScheduler(pool, 1)
	defer sched.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	// First job occupies the single worker...
	if err := sched.SubmitTo(pool, func(*Worker) { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...second fills the queue...
	if err := sched.SubmitTo(pool, func(*Worker) {}); err != nil {
		t.Fatal(err)
	}
	// ...third must be shed.
	err := sched.SubmitTo(pool, func(*Worker) {})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if d := sched.QueueDepth(); d != 1 {
		t.Errorf("QueueDepth = %d, want 1", d)
	}
	close(release)
}

func TestSchedulerDrainsOnClose(t *testing.T) {
	ctx := testContext(t)
	pool := NewEvalPool(ctx, 2, 1, nil)
	sched := NewScheduler(pool, 32)
	var done atomic.Int64
	const jobs = 20
	for i := 0; i < jobs; i++ {
		if err := sched.SubmitTo(pool, func(*Worker) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	sched.Close()
	if done.Load() != jobs {
		t.Errorf("ran %d of %d queued jobs before Close returned", done.Load(), jobs)
	}
	if err := sched.SubmitTo(pool, func(*Worker) {}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("SubmitTo after Close = %v, want ErrOverloaded", err)
	}
	sched.Close() // idempotent
}
