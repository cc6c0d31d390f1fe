package edge

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/he/ckks"
	"quhe/internal/he/ring"
	"quhe/internal/serve"
)

// opNames labels the op table's rows for TestOpGates. A row added to the
// table without a name here fails the test: a new op has to walk the
// gates too.
var opNames = map[byte]string{frameCompute: "compute", frameMatVec: "matvec"}

// TestOpGates drives every row of the op table through the gates all ops
// share, over raw frames (a real Client refuses to send some of these):
// a served block is observed once with its bytes and traced with the op's
// stages; a stale epoch, a block that names no epoch, an oversized block,
// a control-plane denial, an exhausted plan budget and a full queue are
// each refused under the same code whatever the op.
func TestOpGates(t *testing.T) {
	for _, o := range ops {
		name, ok := opNames[o.req]
		if !ok {
			t.Fatalf("op with request frame %d has no name in opNames", o.req)
		}
		t.Run(name, func(t *testing.T) {
			ctl := &fakeControl{}
			srv := startControlledServer(t, ctl, ServerConfig{
				Model:   Model{Weights: []float64{1}, Matrix: testMatrix},
				Workers: 1, QueueDepth: 1,
			})
			p := newRawPeer(t, 401)
			p.dial(t, srv.Addr())
			p.register(t, "gated")
			p.uploadRotKeys(t, 403, len(testMatrix))

			block := uint32(0)
			request := func(epoch uint64, slots int) func(b []byte) []byte {
				block++
				req := &ComputeRequest{Block: block, Epoch: epoch, Masked: make([]float64, slots)}
				return func(b []byte) []byte { return appendComputeRequest(b, req) }
			}
			try := func(what string, epoch uint64, slots int, want serve.Code) {
				t.Helper()
				rep, err := decodeComputeReply(p.call(t, o.req, frameComputeReply, request(epoch, slots)))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Code != want || (want == serve.CodeOK) != (rep.Result != nil) {
					t.Errorf("%s: reply code %v (result %v, %q), want %v", what, rep.Code, rep.Result != nil, rep.Err, want)
				}
			}
			const slots = 4

			try("served block", 1, slots, serve.CodeOK)
			if n, b, c := ctl.observed.Load(), ctl.lastBytes.Load(), serve.Code(ctl.lastCode.Load()); n != 1 || b != 8*slots || c != serve.CodeOK {
				t.Errorf("ObserveCompute saw %d calls, last %d bytes code %v; want 1 call, %d bytes, ok", n, b, c, 8*slots)
			}
			wantStages := []string{stageDecode, stageQueueWait, stageEval, stageEncode, stageWrite}
			if o.kernel != nil {
				wantStages = slices.Insert(wantStages, 3, o.stage)
			}
			// The worker records the trace after the reply is on the wire.
			traces := srv.Tracer().Dump()
			for deadline := time.Now().Add(2 * time.Second); len(traces) < 1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				traces = srv.Tracer().Dump()
			}
			if len(traces) != 1 {
				t.Fatalf("%d traces after one block, want 1", len(traces))
			}
			var stages []string
			for _, sp := range traces[0].Spans {
				stages = append(stages, sp.Stage)
			}
			if !slices.Equal(stages, wantStages) {
				t.Errorf("trace stages %v, want %v", stages, wantStages)
			}

			try("stale epoch", 7, slots, serve.CodeRekeyRequired)
			try("no epoch", 0, slots, serve.CodeRekeyRequired)
			try("oversized block", 1, p.cipher.Slots()+1, serve.CodeOversized)
			ctl.denyCompute.Store(true)
			try("control-plane denial", 1, slots, serve.CodeAdmissionDenied)
			ctl.denyCompute.Store(false)
			// The plan's budget governs with the static RekeyBytes unset: the
			// served block already spent more than one byte of it.
			ctl.budget.Store(1)
			try("plan budget below one block", 1, slots, serve.CodeRekeyRequired)
			ctl.budget.Store(0)
			if got := blocks(srv, "gated"); got != 1 {
				t.Errorf("%d blocks recorded, want only the served one", got)
			}

			// Queue full: park the one worker inside a block, fill the
			// one queue slot behind it, and the third request is shed.
			// A connection's window is the queue's depth, so it takes
			// three connections: each holds one request in flight, for a
			// session of its own.
			q, r := *p, *p
			q.buf, r.buf = nil, nil
			q.dial(t, srv.Addr())
			r.dial(t, srv.Addr())
			q.register(t, "gated-q")
			q.uploadRotKeys(t, 403, len(testMatrix))
			r.register(t, "gated-r")
			release := parkFirstBlock(ctl, func() { p.send(t, o.req, 101, request(1, slots)) })
			q.send(t, o.req, 102, request(1, slots))
			for deadline := time.Now().Add(2 * time.Second); srv.sched.QueueDepth() < 1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			r.send(t, o.req, 103, request(1, slots))
			ftype, id, payload := r.recv(t)
			rep, err := decodeComputeReply(payload)
			if err != nil {
				t.Fatal(err)
			}
			if ftype != frameComputeReply || id != 103 || rep.Code != serve.CodeOverloaded {
				t.Errorf("behind a full queue: frame %d id %d code %v, want frame %d id 103 overloaded", ftype, id, rep.Code, frameComputeReply)
			}
			close(release)
			for _, held := range []*rawPeer{p, &q} {
				ftype, id, payload := held.recv(t)
				rep, err := decodeComputeReply(payload)
				if err != nil {
					t.Fatal(err)
				}
				if ftype != frameComputeReply || rep.Code != serve.CodeOK {
					t.Errorf("queued request %d: frame %d code %v (%q), want served", id, ftype, rep.Code, rep.Err)
				}
			}
		})
	}
}

// TestEvalPanicContained: a kernel that panics — here on a ring.ForEach
// index, which a helper raises again on its caller — costs its block a
// typed CodeInternal reply, counted once, with its stack logged, and
// nothing more: the next block on the same connection runs on the same
// worker, now holding a fresh evaluator, and decrypts to the model's
// answer. Not parallel: it swaps a row of the package's op table.
func TestEvalPanicContained(t *testing.T) {
	kernel := opMatVec.kernel
	var panicked atomic.Bool
	evs := make(chan *ckks.Evaluator, 2) // the evaluator each call ran on
	opMatVec.kernel = func(s *Server, rt *profileRuntime, w *serve.Worker, sess *serve.Session, ct *ckks.Ciphertext) (*ckks.Ciphertext, int, serve.Code, string) {
		evs <- w.Ev
		if panicked.CompareAndSwap(false, true) {
			ring.ForEach(ring.ParallelMinN, 4, func(i int) {
				if i == 3 {
					panic("kernel fault")
				}
			})
		}
		return kernel(s, rt, w, sess, ct)
	}
	defer func() { opMatVec.kernel = kernel }()

	var logMu sync.Mutex
	var logged strings.Builder
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model:   Model{Weights: []float64{1}, Matrix: testMatrix},
		Workers: 1,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&logged, format+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := newRawPeer(t, 421)
	p.dial(t, srv.Addr())
	p.register(t, "panicky")
	p.uploadRotKeys(t, 423, len(testMatrix))

	// The kernel reads the vector at every offset, so it fills the block
	// (slot j carries x[j mod dim]), as the client's MatVec sends it.
	x := []float64{0.5, -0.25, 0.75, 0.1}
	tiled := make([]float64, p.cipher.Slots())
	for j := range tiled {
		tiled[j] = x[j%len(x)]
	}
	matvec := func(block uint32) *ComputeReply {
		req := &ComputeRequest{Block: block, Epoch: 1, Masked: p.mask(t, block, tiled)}
		rep, err := decodeComputeReply(p.call(t, frameMatVec, frameComputeReply,
			func(b []byte) []byte { return appendComputeRequest(b, req) }))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := matvec(1); rep.Code != serve.CodeInternal || rep.Result != nil || !strings.Contains(rep.Err, "kernel fault") {
		t.Fatalf("panicking block replied %v (result %v, %q), want %v naming the panic", rep.Code, rep.Result != nil, rep.Err, serve.CodeInternal)
	}
	if n := srv.met.codeCounters[serve.CodeInternal].Value(); n != 1 {
		t.Errorf(`quhe_serve_compute_total{code="internal"} = %d, want 1`, n)
	}
	logMu.Lock()
	log := logged.String()
	logMu.Unlock()
	if !strings.Contains(log, "eval panic") || !strings.Contains(log, "goroutine ") {
		t.Errorf("log holds no panic stack:\n%s", log)
	}

	rep := matvec(2)
	if rep.Code != serve.CodeOK || rep.Result == nil {
		t.Fatalf("block after the panic replied %v (%q), want ok", rep.Code, rep.Err)
	}
	got := p.decrypt(rep.Result)
	for i, want := range plainMatVec(testMatrix, nil, x) {
		if math.Abs(got[i]-want) > 1e-3 {
			t.Errorf("slot %d after the panic = %v, want %v", i, got[i], want)
		}
	}
	if n := srv.met.codeCounters[serve.CodeOK].Value(); n != 1 {
		t.Errorf(`quhe_serve_compute_total{code="ok"} = %d, want 1`, n)
	}
	if before, after := <-evs, <-evs; before == after {
		t.Error("the worker kept the evaluator the panic left behind")
	}
}
