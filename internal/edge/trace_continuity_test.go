package edge

// Distributed-trace continuity: one block's trace identity crosses the
// wire — client mask/submit/wait, server decode→…→write — so a merged
// chrome dump shows the whole life of the block as a single trace ID
// across both process lanes. Run under -race in CI.

import (
	"math"
	"strings"
	"testing"
	"time"

	"quhe/internal/obs"
	"quhe/internal/qkd"
)

// findTrace returns the first trace for the given block that has a span
// with the wanted stage name.
func findTrace(traces []obs.BlockTrace, block uint32, stage string) (obs.BlockTrace, bool) {
	for _, bt := range traces {
		if bt.Block != block {
			continue
		}
		for _, sp := range bt.Spans {
			if sp.Stage == stage {
				return bt, true
			}
		}
	}
	return obs.BlockTrace{}, false
}

func stages(bt obs.BlockTrace) []string {
	out := make([]string, len(bt.Spans))
	for i, sp := range bt.Spans {
		out[i] = sp.Stage
	}
	return out
}

// TestTraceContinuity follows one sampled block through both processes:
// the server re-parents its stage spans under the client's trace
// context, a client dump and a server dump merge into one trace, and the
// key-flow ledger reconciles with the key centre.
func TestTraceContinuity(t *testing.T) {
	srv := chaosServer(t, ServerConfig{})
	kc := qkd.NewKeyCenter()
	ledger := qkd.NewLedger()
	kc.AttachLedger(ledger)
	if err := kc.Provision("trace-rt", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.RunExchange("trace-rt", 0.97, 8192, 5); err != nil {
		t.Fatal(err)
	}
	clientTr := obs.NewTracer(0, 0)
	client, err := DialQKDWith(srv.Addr(), "trace-rt", kc, 9, DialConfig{
		RequestTimeout: 15 * time.Second,
		Tracer:         clientTr,
		TraceSample:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const block = 2
	res, err := client.Compute(block, []float64{0.8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0]-0.5) > 1e-3 {
		t.Fatalf("traced block result %g, want ≈0.5", res[0])
	}

	clientTraces := clientTr.Dump()
	cbt, ok := findTrace(clientTraces, block, "submit")
	if !ok {
		t.Fatalf("no client compute trace for block %d; have %d traces", block, len(clientTraces))
	}
	if cbt.TraceID == 0 || cbt.SpanID == 0 {
		t.Fatalf("client trace has no identity: %+v", cbt)
	}
	if cbt.Proc != "client" {
		t.Errorf("client trace proc = %q, want client", cbt.Proc)
	}

	// The server's trace for the block must be re-parented under the
	// client's context: same trace ID, parent = the client root span.
	// The server records its trace just after the reply frame hits the
	// socket, so poll briefly.
	var sbt obs.BlockTrace
	deadline := time.Now().Add(2 * time.Second)
	for {
		if sbt, ok = findTrace(srv.Tracer().Dump(), block, stageEval); ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("no server trace for block %d", block)
	}
	if sbt.TraceID != cbt.TraceID {
		t.Fatalf("server trace ID %x, client %x — continuity broken across the wire", sbt.TraceID, cbt.TraceID)
	}
	if sbt.Parent != cbt.SpanID {
		t.Errorf("server parent span %x, want client root %x", sbt.Parent, cbt.SpanID)
	}
	for _, want := range []string{stageDecode, stageQueueWait, stageEval, stageEncode, stageWrite} {
		if _, ok := findTrace([]obs.BlockTrace{sbt}, block, want); !ok {
			t.Errorf("server trace missing %s span (have %v)", want, stages(sbt))
		}
	}

	// A merged dump renders both process lanes with the shared trace ID.
	var b strings.Builder
	if err := obs.WriteChromeTraces(&b, append(clientTr.Dump(), srv.Tracer().Dump()...)); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, want := range []string{`"name":"client"`, `"name":"server"`} {
		if !strings.Contains(dump, want) {
			t.Errorf("merged dump missing process lane %s", want)
		}
	}
	if got := strings.Count(dump, traceHex(cbt.TraceID)); got < 2 {
		t.Errorf("merged dump mentions the trace ID %d times, want ≥2 (both lanes)", got)
	}

	// The ledger saw exactly the key centre's withdrawals: the setup's.
	w, bytes := ledger.Totals()
	fc := kc.Counters()
	if w != fc.Withdrawals || bytes != fc.WithdrawnBytes {
		t.Errorf("ledger %d/%d, key centre %d/%d — must reconcile", w, bytes, fc.Withdrawals, fc.WithdrawnBytes)
	}
	if got := ledger.CauseWithdrawals(qkd.CauseSetup); got != 1 {
		t.Errorf("setup withdrawals = %d, want 1", got)
	}
}

// traceHex mirrors the dump's fixed-width hex rendering of trace IDs.
func traceHex(v uint64) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b)
}

// TestRekeyCauseAttribution pins the cause resolution of rekey
// withdrawals: explicit Rekey → replan, epoch-guarded auto rekey →
// budget-rekey.
func TestRekeyCauseAttribution(t *testing.T) {
	srv := chaosServer(t, ServerConfig{})
	kc := qkd.NewKeyCenter()
	ledger := qkd.NewLedger()
	kc.AttachLedger(ledger)
	if err := kc.Provision("cause-rt", 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := kc.RunExchange("cause-rt", 0.97, 8192, int64(5+i)); err != nil {
			t.Fatal(err)
		}
	}
	client, err := DialQKDWith(srv.Addr(), "cause-rt", kc, 9, DialConfig{
		RequestTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if got := ledger.CauseWithdrawals(qkd.CauseSetup); got != 1 {
		t.Fatalf("setup withdrawals = %d, want 1", got)
	}

	// Explicit rekey: a plan- or operator-driven rotation.
	if err := client.Rekey(); err != nil {
		t.Fatal(err)
	}
	if got := ledger.CauseWithdrawals(qkd.CauseReplan); got != 1 {
		t.Errorf("replan withdrawals = %d, want 1", got)
	}

	// Epoch-guarded rekey: the budget-exhaustion path.
	if err := client.RekeyIfEpoch(client.Epoch()); err != nil {
		t.Fatal(err)
	}
	if got := ledger.CauseWithdrawals(qkd.CauseBudgetRekey); got != 1 {
		t.Errorf("budget-rekey withdrawals = %d, want 1", got)
	}
}
