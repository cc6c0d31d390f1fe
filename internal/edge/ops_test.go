package edge

import (
	"slices"
	"testing"
	"time"

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
