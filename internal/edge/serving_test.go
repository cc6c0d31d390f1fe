package edge

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"quhe/internal/he/profile"
	"quhe/internal/qkd"
	"quhe/internal/serve"
)

// --- duplicate registration & typed codes ----------------------------------

func TestDuplicateSetupRejected(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	c1, err := DialWith(srv.Addr(), "dup", []byte("k1"), 3, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, err = DialWith(srv.Addr(), "dup", []byte("k2"), 4, DialConfig{})
	if err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if !errors.Is(err, serve.ErrDuplicateSession) {
		t.Errorf("duplicate registration err = %v, want serve.ErrDuplicateSession", err)
	}
	// The original session keeps working with its original keys.
	got, err := c1.Compute(0, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 0.05 {
		t.Errorf("original session corrupted: got %v", got[0])
	}
}

func TestTypedErrorCodesOnWire(t *testing.T) {
	srv := startServer(t, Model{})
	client, err := DialWith(srv.Addr(), "typed", []byte("k"), 5, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.sessionID = "forged"
	_, err = client.Compute(0, []float64{1})
	if !errors.Is(err, serve.ErrUnknownSession) {
		t.Errorf("forged session err = %v, want serve.ErrUnknownSession", err)
	}
}

// --- pipelining -------------------------------------------------------------

func TestPipelinedComputes(t *testing.T) {
	model := Model{Weights: []float64{2, -1}, Bias: []float64{0, 0.5}}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: model, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), "pipe", []byte("k"), 9, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const inFlight = 8
	pendings := make([]*Pending, inFlight)
	for i := 0; i < inFlight; i++ {
		p, err := client.ComputeAsync(uint32(i), []float64{float64(i) * 0.1, 0.25})
		if err != nil {
			t.Fatalf("async %d: %v", i, err)
		}
		pendings[i] = p
	}
	for i, p := range pendings {
		got, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		want0 := 2 * float64(i) * 0.1
		want1 := -0.25 + 0.5
		if math.Abs(got[0]-want0) > 0.05 || math.Abs(got[1]-want1) > 0.05 {
			t.Errorf("block %d = %v, want [%v %v]", i, got, want0, want1)
		}
	}
	if n := blocks(srv, "pipe"); n != inFlight {
		t.Errorf("server processed %d blocks, want %d", n, inFlight)
	}
}

// TestServedComputeAllocs pins the server-side allocations of one served
// Compute in steady state: the worker → writer hand-off passes pooled
// buffers and a trace pointer by value and must add none. The client side
// is a raw peer re-sending one prebuilt frame and reading replies into one
// buffer, so what AllocsPerRun counts (process-wide) is the server's.
func TestServedComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := startServer(t, Model{Weights: []float64{1}})
	p := newRawPeer(t, 11)
	p.dial(t, srv.Addr())
	p.register(t, "allocs")
	req := &ComputeRequest{SessionID: "allocs", Block: 1, Masked: p.mask(t, 1, []float64{0.5})}
	frame := buildFrame(t, frameCompute, 7, func(b []byte) []byte { return appendComputeRequest(b, req) })
	roundTrip := func() {
		if _, err := p.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if ftype, _, _ := p.recv(t); ftype != frameComputeReply {
			t.Fatalf("reply frame type %d", ftype)
		}
	}
	roundTrip() // warm the pools: evaluator, scratch, frame buffers
	// Measured 40: the decoded request, the trace and its spans, the job
	// closure, and mostly the result ciphertext the transcipher builds. It
	// was 64 — with the worker writing the reply itself, and again with the
	// hand-off — until MulRelinInto and keySwitchDown stopped building task
	// slices that N = 1024 then ran serially. The bound is +5%.
	const bound = 42
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs > bound {
		t.Errorf("a served Compute allocates %.1f times, want ≤ %d", allocs, bound)
	}
}

// TestClientBlockAllocs pins the client's side of one block: masking
// allocates the masked block, and decoding and decrypting the reply
// allocate the reply envelope, the returned values and the decryption's
// one limb fan-out closure. The reply ciphertext, the plaintext it
// decrypts into and the FFT space it decodes through are reused from
// block to block, so the bytes a block allocates stay far below one
// ciphertext.
func TestClientBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := startServer(t, Model{Weights: []float64{1}})
	c, err := DialWith(srv.Addr(), "client-allocs", []byte("k"), 13, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []float64{0.5, -0.25, 0.125}
	pt, err := c.encoder.EncodeRealAtLevel(data, 0, c.ctx.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct := c.ev.Encrypt(c.pk, pt)
	payload := appendComputeReply(nil, &ComputeReply{Result: ct})
	block := func() {
		if _, _, err := c.mask(1, data, nil); err != nil {
			t.Fatal(err)
		}
		rep, err := decodeComputeReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.decrypt(rep.Result, len(data))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range data {
			if math.Abs(got[i]-want) > 1e-6 {
				t.Fatalf("slot %d = %v, want %v", i, got[i], want)
			}
		}
	}
	block() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, block)
	runtime.ReadMemStats(&after)
	if allocs > 4 {
		t.Errorf("a block's mask + reply decode + decrypt allocates %v objects, want 4", allocs)
	}
	perBlock := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if limit := uint64(8*c.Slots()) + uint64(ct.BinarySize())/2; perBlock > limit {
		t.Errorf("a block allocates %d bytes, want ≤ %d: the reply ciphertext (%d bytes) is not reused", perBlock, limit, ct.BinarySize())
	}
}

// TestConcurrentWaitsOwnBlocks runs many Waits on one client at once:
// decryption shares the client's evaluator under evMu while decodes run
// on pooled working sets in parallel, and every Wait must still get its
// own block's values.
func TestConcurrentWaitsOwnBlocks(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: Model{Weights: []float64{1}}, Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialWith(srv.Addr(), "waits", []byte("k"), 17, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const waiters, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, waiters*rounds)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				block := uint32(w*rounds + r)
				data := []float64{float64(block) / 16, -float64(block) / 32, 0.25}
				p, err := c.ComputeAsync(block, data)
				if err != nil {
					errs <- err
					return
				}
				got, err := p.Wait()
				if err != nil {
					errs <- err
					return
				}
				for i, want := range data {
					if math.Abs(got[i]-want) > 0.01 {
						errs <- fmt.Errorf("block %d slot %d = %v, want %v", block, i, got[i], want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentClientsPipelined exercises the sharded store and shared
// pool under many clients × many in-flight blocks (run with -race in CI).
func TestConcurrentClientsPipelined(t *testing.T) {
	model := Model{Weights: []float64{3}}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: model, Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 3, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := fmt.Sprintf("mt-%d", id)
			client, err := DialWith(srv.Addr(), name, []byte(name), int64(40+id), DialConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			pendings := make([]*Pending, perClient)
			for b := 0; b < perClient; b++ {
				p, err := client.ComputeAsync(uint32(b), []float64{0.2})
				if err != nil {
					errs <- err
					return
				}
				pendings[b] = p
			}
			for b, p := range pendings {
				got, err := p.Wait()
				if err != nil {
					errs <- fmt.Errorf("%s block %d: %w", name, b, err)
					return
				}
				if math.Abs(got[0]-0.6) > 0.05 {
					errs <- fmt.Errorf("%s block %d: got %v, want 0.6", name, b, got[0])
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < clients; i++ {
		if n := blocks(srv, fmt.Sprintf("mt-%d", i)); n != perClient {
			t.Errorf("client %d: %d blocks, want %d", i, n, perClient)
		}
	}
}

// --- batch ------------------------------------------------------------------

func TestBatchCompute(t *testing.T) {
	model := Model{Weights: []float64{1, 2}, Bias: []float64{0.1, -0.1}}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: model, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), "batch", []byte("k"), 13, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := [][]float64{{0.1, 0.2}, {0.3, -0.4}, {-0.5, 0.6}, {0.7, 0.8}, {0.9, -0.1}}
	got, err := client.ComputeBatch(100, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range data {
		want0 := d[0] + 0.1
		want1 := 2*d[1] - 0.1
		if math.Abs(got[i][0]-want0) > 0.05 || math.Abs(got[i][1]-want1) > 0.05 {
			t.Errorf("item %d = %v, want [%v %v]", i, got[i], want0, want1)
		}
	}
	if n := blocks(srv, "batch"); n != len(data) {
		t.Errorf("server processed %d blocks, want %d", n, len(data))
	}
	if want := wantCmpDelay(t, client, len(data), 0); client.LastTxDelay <= 0 || client.LastCmpDelay != want {
		t.Errorf("batch delays: tx %v, cmp %v want the registry's %v", client.LastTxDelay, client.LastCmpDelay, want)
	}
}

// parkFirstBlock makes the next block to reach ctl's compute admission
// wait there, on its eval worker. It returns once that block is parked;
// later blocks pass. Closing the returned channel lets it finish.
func parkFirstBlock(ctl *fakeControl, start func()) (release chan struct{}) {
	entered, release := make(chan struct{}), make(chan struct{})
	hook := func() {
		entered <- struct{}{}
		<-release
	}
	ctl.admitHook.Store(&hook)
	start()
	<-entered
	ctl.admitHook.Store(nil)
	return release
}

// TestBatchStraddlesRekey rotates the key while a batch is in flight. The
// first item is parked on the one worker, past its epoch check, and is
// served under the old key; the items queued behind it are refused for
// their epoch once the rotation lands, and ComputeBatch resends exactly
// those under the new one.
func TestBatchStraddlesRekey(t *testing.T) {
	ctl := &fakeControl{}
	srv := startControlledServer(t, ctl, ServerConfig{
		Model: Model{Weights: []float64{2}}, Workers: 1, QueueDepth: 16,
	})
	client, err := DialQKDWith(srv.Addr(), "straddle", provisionedKeyCenter(t, "straddle"), 31, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := make([][]float64, 8)
	for i := range data {
		data[i] = []float64{0.1 * float64(i)}
	}
	type result struct {
		out [][]float64
		err error
	}
	done := make(chan result, 1)
	release := parkFirstBlock(ctl, func() {
		go func() {
			out, err := client.ComputeBatch(0, data)
			done <- result{out, err}
		}()
	})
	if err := client.Rekey(); err != nil {
		t.Fatal(err)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("batch across a rotation: %v", r.err)
	}
	for i, d := range data {
		if math.Abs(r.out[i][0]-2*d[0]) > 0.05 {
			t.Errorf("item %d = %v, want %v", i, r.out[i][0], 2*d[0])
		}
	}
	if got := client.Epoch(); got != 2 {
		t.Errorf("client at epoch %d, want 2", got)
	}
	if client.Stats().Retries == 0 {
		t.Error("no retry counted: the rotation did not land inside the batch")
	}
	if n := blocks(srv, "straddle"); n != len(data) {
		t.Errorf("server served %d blocks, want %d (each item once)", n, len(data))
	}
}

// --- backpressure -----------------------------------------------------------

// TestBackpressureShedsPipelinedLoad bursts from two connections: one
// connection can no longer overflow the queue by itself (its window is
// the queue's depth), so shedding takes contention — here two windows of
// two against one worker and two queue slots.
func TestBackpressureShedsPipelinedLoad(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model: Model{Weights: []float64{1}}, Workers: 1, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var clients [2]*Client
	for i := range clients {
		name := fmt.Sprintf("burst-%d", i)
		if clients[i], err = DialWith(srv.Addr(), name, []byte(name), int64(17+i), DialConfig{}); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	const burst = 32
	pendings := make([]*Pending, burst)
	for i := 0; i < burst; i++ {
		p, err := clients[i%2].ComputeAsync(uint32(i), []float64{0.5})
		if err != nil {
			t.Fatalf("async %d: %v", i, err)
		}
		pendings[i] = p
	}
	served, shed := 0, 0
	for i, p := range pendings {
		_, err := p.Wait()
		switch {
		case err == nil:
			served++
		case errors.Is(err, serve.ErrOverloaded):
			shed++
		default:
			t.Fatalf("block %d: unexpected error %v", i, err)
		}
	}
	if served == 0 {
		t.Error("no requests served under burst")
	}
	if shed == 0 {
		t.Error("no requests shed: backpressure not engaged")
	}
	t.Logf("burst of %d: %d served, %d shed", burst, served, shed)

	// The connections and sessions survive shedding.
	for _, client := range clients {
		if _, err := client.Compute(1000, []float64{0.5}); err != nil {
			t.Errorf("compute after burst: %v", err)
		}
	}
}

// TestBatchLargerThanQueueServedWhenIdle pins the admission contract of
// a connection's window: op frames are admitted through a
// queue-depth-bounded window, so on an otherwise idle server a batch far
// larger than the queue completes fully — blocks are shed with
// serve.CodeOverloaded only under genuine cross-connection contention.
func TestBatchLargerThanQueueServedWhenIdle(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model: Model{Weights: []float64{1}}, Workers: 1, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), "bigbatch", []byte("k"), 19, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := make([][]float64, 12)
	for i := range data {
		data[i] = []float64{0.25}
	}
	got, err := client.ComputeBatch(0, data)
	if err != nil {
		t.Fatalf("idle server shed batch items: %v", err)
	}
	for i := range got {
		if got[i] == nil {
			t.Fatalf("item %d missing", i)
		}
		if math.Abs(got[i][0]-0.25) > 0.05 {
			t.Errorf("item %d = %v, want 0.25", i, got[i][0])
		}
	}
	if n := blocks(srv, "bigbatch"); n != len(data) {
		t.Errorf("server processed %d blocks, want %d", n, len(data))
	}
}

// --- QKD-backed rekeying ----------------------------------------------------

// provisionedKeyCenter returns a key centre whose pool for id holds
// enough material for the initial key plus several rekeys.
func provisionedKeyCenter(t *testing.T, id string) *qkd.KeyCenter {
	t.Helper()
	kc := qkd.NewKeyCenter()
	if err := kc.Provision(id, 1000); err != nil {
		t.Fatal(err)
	}
	material := make([]byte, 8*RekeyWithdrawBytes)
	for i := range material {
		material[i] = byte(i*31 + 7)
	}
	if err := kc.Deposit(id, material); err != nil {
		t.Fatal(err)
	}
	return kc
}

func TestRekeyAfterByteBudget(t *testing.T) {
	blockBytes := int64(8 * profile.Default().Default().Params.Slots())
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model:      Model{Weights: []float64{1}},
		RekeyBytes: blockBytes, // budget spent after one block
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	kc := provisionedKeyCenter(t, "rk")
	client, err := DialQKDWith(srv.Addr(), "rk", kc, 23, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Three computes: the attached key centre absorbs the budget
	// rejections via automatic rekeys.
	for b := uint32(0); b < 3; b++ {
		got, err := client.Compute(b, []float64{0.5})
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if math.Abs(got[0]-0.5) > 0.05 {
			t.Errorf("block %d = %v, want 0.5", b, got[0])
		}
	}
	stats, ok := srv.SessionStats("rk")
	if !ok {
		t.Fatal("session missing")
	}
	if stats.Blocks != 3 {
		t.Errorf("blocks = %d, want 3", stats.Blocks)
	}
	if stats.Rekeys == 0 {
		t.Error("no rekeys recorded despite exhausted byte budget")
	}
	if stats.Epoch != uint64(stats.Rekeys)+1 {
		t.Errorf("epoch %d inconsistent with %d rekeys", stats.Epoch, stats.Rekeys)
	}
	if client.Epoch() != stats.Epoch {
		t.Errorf("client epoch %d != server epoch %d", client.Epoch(), stats.Epoch)
	}
}

func TestManualRekeyWithoutKeyCenter(t *testing.T) {
	blockBytes := int64(8 * profile.Default().Default().Params.Slots())
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model:      Model{Weights: []float64{1}},
		RekeyBytes: blockBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), "manual", []byte("initial-material"), 29, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Compute(0, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if !client.RekeyAdvised() {
		t.Error("server did not advise rekey at a spent budget")
	}
	// Budget is now exhausted and no key centre is attached: typed error,
	// and a manual rekey has no material to draw.
	_, err = client.Compute(1, []float64{0.5})
	if !errors.Is(err, serve.ErrRekeyRequired) {
		t.Fatalf("budget-exhausted err = %v, want serve.ErrRekeyRequired", err)
	}
	if err := client.Rekey(); err == nil {
		t.Fatal("rekey without a key centre succeeded")
	}
	if client.Epoch() != 1 {
		t.Errorf("client epoch = %d, want 1", client.Epoch())
	}
}

// --- session eviction -------------------------------------------------------

func TestSessionEvictionUnderCap(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model: Model{Weights: []float64{1}}, MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := DialWith(srv.Addr(), fmt.Sprintf("ev-%d", i), []byte("k"), int64(60+i), DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	if n := srv.store.Len(); n != 2 {
		t.Errorf("resident sessions = %d, want 2", n)
	}
	if n := srv.Evictions(); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	// The oldest session was displaced; its computes now fail typed.
	_, err = clients[0].Compute(0, []float64{1})
	if !errors.Is(err, serve.ErrUnknownSession) {
		t.Errorf("evicted session err = %v, want serve.ErrUnknownSession", err)
	}
	// Surviving sessions still serve.
	for _, i := range []int{1, 2} {
		if _, err := clients[i].Compute(0, []float64{1}); err != nil {
			t.Errorf("survivor %d: %v", i, err)
		}
	}
}
