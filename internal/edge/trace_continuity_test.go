package edge

// Distributed-trace continuity (PR 9): one block's trace identity must
// survive the full fault path — client submit, transport kill, reconnect,
// resume, replay, server decode→…→write — so a merged chrome dump shows
// the whole life of the block as a single trace ID across both process
// lanes. Run under -race in CI.

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/faultnet"
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

func TestTraceContinuityAcrossResume(t *testing.T) {
	srv := chaosServer(t, ServerConfig{
		IdleTimeout:  2 * time.Second,
		ResumeWindow: 10 * time.Second,
	})
	kc := qkd.NewKeyCenter()
	ledger := qkd.NewLedger()
	kc.AttachLedger(ledger)
	if err := kc.Provision("trace-rt", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.RunExchange("trace-rt", 0.97, 8192, 5); err != nil {
		t.Fatal(err)
	}
	// Every write dies once armed: the kill lands deterministically on the
	// in-flight compute under test, not between requests.
	inj := faultnet.New(faultnet.Config{Seed: 11, Write: faultnet.Spec{DropProb: 1}})
	var armed atomic.Bool
	clientTr := obs.NewTracer(0, 0)
	client, err := DialQKDWith(srv.Addr(), "trace-rt", kc, 9, DialConfig{
		Dialer:         armedDialer(inj, &armed),
		Reconnect:      true,
		RequestTimeout: 15 * time.Second,
		Tracer:         clientTr,
		TraceSample:    1,
		Route:          "route-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Warmup: a healthy traced block proves the happy path first.
	if _, err := client.Compute(1, []float64{0.8}); err != nil {
		t.Fatal(err)
	}

	// Kill the transport mid-submit: the compute's send hits the dying
	// connection, stays registered, and the client reconnects, resumes
	// the session and replays the envelope — which still carries the
	// block's original trace context.
	const block = 2
	armed.Store(true)
	p, err := client.ComputeAsync(block, []float64{0.8})
	if err != nil {
		t.Fatalf("submit across transport kill: %v", err)
	}
	armed.Store(false) // let the reconnect transport live
	res, err := p.Wait()
	if err != nil {
		t.Fatalf("wait across transport kill: %v", err)
	}
	if math.Abs(res[0]-0.5) > 1e-3 {
		t.Fatalf("replayed block result %g, want ≈0.5", res[0])
	}
	st := client.Stats()
	if st.Reconnects < 1 || st.Resumes < 1 {
		t.Fatalf("reconnects/resumes = %d/%d, want ≥1 each (fault path not exercised)", st.Reconnects, st.Resumes)
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

	// The recovery trace (reconnect/resume/replay) must share the stalled
	// block's trace ID: the outage belongs to the block it delayed.
	rec, ok := findTrace(clientTraces, 0, "resume")
	if !ok {
		t.Fatal("no recovery trace with a resume span")
	}
	if rec.TraceID != cbt.TraceID {
		t.Errorf("recovery trace ID %x, want the stalled block's %x", rec.TraceID, cbt.TraceID)
	}
	for _, want := range []string{"reconnect", "resume", "replay"} {
		if _, ok := findTrace(clientTraces, 0, want); !ok {
			t.Errorf("recovery trace missing %s span (have %v)", want, stages(rec))
		}
	}

	// The server's trace for the replayed block must be re-parented under
	// the client's context: same trace ID, parent = the client root span.
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
		t.Fatalf("server trace ID %x, client %x — continuity broken across resume", sbt.TraceID, cbt.TraceID)
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

	// The ledger saw exactly the key centre's withdrawals (setup only —
	// resume must not withdraw).
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
// budget-rekey, and the first rotation after a resume → resume-rotation.
func TestRekeyCauseAttribution(t *testing.T) {
	srv := chaosServer(t, ServerConfig{ResumeWindow: 10 * time.Second})
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
	inj := faultnet.New(faultnet.Config{Seed: 7})
	client, err := DialQKDWith(srv.Addr(), "cause-rt", kc, 9, DialConfig{
		Dialer:         inj.Dialer(2 * time.Second),
		Reconnect:      true,
		RequestTimeout: 15 * time.Second,
		Route:          "route-9",
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

	// Resume, then rekey: hygiene rotation attributed to the resume even
	// though the trigger below is the explicit API.
	if _, err := client.Compute(1, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if n := inj.CloseAll(); n == 0 {
		t.Fatal("no live connection to kill")
	}
	if _, err := client.Compute(2, []float64{0.5}); err != nil {
		t.Fatalf("compute across kill: %v", err)
	}
	if client.Stats().Resumes < 1 {
		t.Fatal("session did not resume")
	}
	if err := client.Rekey(); err != nil {
		t.Fatal(err)
	}
	if got := ledger.CauseWithdrawals(qkd.CauseResumeRotation); got != 1 {
		t.Errorf("resume-rotation withdrawals = %d, want 1", got)
	}
	// The resume flag clears on that rotation: the next rekey is back to
	// its caller's cause.
	if err := client.Rekey(); err != nil {
		t.Fatal(err)
	}
	if got := ledger.CauseWithdrawals(qkd.CauseReplan); got != 2 {
		t.Errorf("replan withdrawals after flag clear = %d, want 2", got)
	}
}
