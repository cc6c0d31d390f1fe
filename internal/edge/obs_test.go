package edge

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
)

// scrapeMetrics GETs the debug plane's /metrics and parses every sample
// line into name{labels} → value.
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape content-type %q, want text format 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestServerMetricsEndToEnd drives real v3 traffic through a server with
// the debug plane up and asserts the acceptance series: per-stage
// latency histograms, per-profile eval latency, wire counters and
// outcome codes, all scraped over HTTP in the Prometheus text format.
func TestServerMetricsEndToEnd(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model:     Model{Weights: []float64{1, 1}, Bias: []float64{0, 0}},
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.DebugAddr() == "" {
		t.Fatal("debug plane not bound")
	}
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("obs-sess", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.RunExchange("obs-sess", 0.97, 8192, 3); err != nil {
		t.Fatal(err)
	}
	client, err := DialQKDWith(srv.Addr(), "obs-sess", kc, 11, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const blocks = 5
	for b := uint32(0); b < blocks; b++ {
		if _, err := client.Compute(b, []float64{0.5, -0.5}); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	if err := client.Rekey(); err != nil {
		t.Fatalf("rekey: %v", err)
	}

	// The reply writer observes a block's write span just after its reply
	// frame hits the socket, so the last block's can land after the client
	// has read the reply and rekeyed: poll briefly for it.
	var m map[string]float64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		m = scrapeMetrics(t, srv.DebugAddr())
		if m[`quhe_stage_seconds_count{stage="write"}`] >= blocks || time.Now().After(deadline) {
			break
		}
	}
	for _, stage := range []string{"decode", "queue_wait", "eval", "encode", "write"} {
		key := fmt.Sprintf(`quhe_stage_seconds_count{stage="%s"}`, stage)
		if m[key] < blocks {
			t.Errorf("%s = %g, want ≥ %d", key, m[key], blocks)
		}
	}
	evalKey := fmt.Sprintf(`quhe_eval_seconds_count{profile="%s"}`, client.Profile())
	if m[evalKey] < blocks {
		t.Errorf("%s = %g, want ≥ %d", evalKey, m[evalKey], blocks)
	}
	if m[`quhe_eval_seconds_sum{profile="`+client.Profile()+`"}`] <= 0 {
		t.Error("eval latency sum must be positive")
	}
	if m[`quhe_wire_frames_total{dir="in"}`] <= 0 || m[`quhe_wire_frames_total{dir="out"}`] <= 0 {
		t.Errorf("wire frame counters: in %g out %g", m[`quhe_wire_frames_total{dir="in"}`], m[`quhe_wire_frames_total{dir="out"}`])
	}
	if m[`quhe_wire_bytes_total{dir="in"}`] <= 0 || m[`quhe_wire_bytes_total{dir="out"}`] <= 0 {
		t.Errorf("wire byte counters: in %g out %g", m[`quhe_wire_bytes_total{dir="in"}`], m[`quhe_wire_bytes_total{dir="out"}`])
	}
	if m["quhe_edge_conns"] != 1 {
		t.Errorf("conn gauge = %g, want 1", m["quhe_edge_conns"])
	}
	if m["quhe_edge_sessions"] != 1 {
		t.Errorf("session gauge = %g, want 1", m["quhe_edge_sessions"])
	}
	if m[`quhe_serve_compute_total{code="ok"}`] != blocks {
		t.Errorf("ok compute counter = %g, want %d", m[`quhe_serve_compute_total{code="ok"}`], blocks)
	}
	if key := `quhe_slo_events_total{result="good",slo="availability"}`; m[key] != blocks {
		t.Errorf("%s = %g, want %d", key, m[key], blocks)
	}
	if m["quhe_edge_rekeys_total"] != 1 {
		t.Errorf("rekey counter = %g, want 1", m["quhe_edge_rekeys_total"])
	}
	if m[`quhe_eval_pool_size{profile="`+client.Profile()+`"}`] <= 0 {
		t.Error("default profile pool gauges missing")
	}
	if m["quhe_serve_queue_capacity"] <= 0 {
		t.Errorf("queue capacity gauge = %g", m["quhe_serve_queue_capacity"])
	}
	if body := getDebug(t, srv.DebugAddr(), "/debug/trace"); !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace must serve the chrome dump, got %q", body)
	}
}

// TestTraceSpanSum pins the acceptance bound on trace fidelity: the sum
// of a block's stage spans accounts for its measured end-to-end latency
// within 10% — the untraced gaps (session lookup, handoffs) are noise
// next to the eval work.
func TestTraceSpanSum(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model: Model{Weights: []float64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), "trace-sess", []byte("qkd-material"), 13, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for b := uint32(0); b < 3; b++ {
		if _, err := client.Compute(b, []float64{0.25}); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	// A worker records its block's trace after the write span the trace
	// contains, i.e. after the reply is on the wire: the last block's
	// trace can trail its reply. Poll instead of racing the worker.
	traces := srv.Tracer().Dump()
	for deadline := time.Now().Add(2 * time.Second); len(traces) < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		traces = srv.Tracer().Dump()
	}
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	for _, bt := range traces {
		if len(bt.Spans) != 5 {
			t.Errorf("block %d: %d spans, want 5", bt.Block, len(bt.Spans))
			continue
		}
		var sum time.Duration
		for _, sp := range bt.Spans {
			sum += sp.Dur
		}
		total := bt.Total
		if gap := total - sum; gap < 0 || float64(gap) > 0.1*float64(total) {
			t.Errorf("block %d: span sum %v vs total %v (gap %v exceeds 10%%)",
				bt.Block, sum, total, gap)
		}
	}
}

// getDebug GETs one debug-plane page, failing the test unless it answers
// 200, and returns the body.
func getDebug(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status %d", path, resp.StatusCode)
	}
	return string(body)
}

// TestDebugPlanWithController shares one registry between the edge
// server and a real control plane and checks the combined /metrics page,
// /debug/plan rendering the controller's live plan and /debug/keyledger
// rendering its key centre's ledger after one QKD-provisioned session.
func TestDebugPlanWithController(t *testing.T) {
	reg := obs.NewRegistry()
	kc := qkd.NewKeyCenter()
	kc.AttachLedger(qkd.NewLedger())
	// Funded before the controller's first plan, which sizes admission
	// from the key stock.
	if err := kc.Provision("ledger-sess", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.RunExchange("ledger-sess", 0.97, 8192, 3); err != nil {
		t.Fatal(err)
	}
	ctl, err := control.New(control.Config{Network: qnet.SURFnet(), Metrics: reg, KeyCenter: kc})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Model:     Model{Weights: []float64{1}},
		Control:   ctl,
		Obs:       reg,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialQKDWith(srv.Addr(), "ledger-sess", kc, 11, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Compute(0, []float64{0.5}); err != nil {
		t.Fatal(err)
	}

	m := scrapeMetrics(t, srv.DebugAddr())
	if m["quhe_control_replans_total"] < 1 {
		t.Error("shared registry must carry the control plane's series")
	}
	if _, ok := m["quhe_qkd_stock_bytes"]; !ok {
		t.Error("shared registry must carry the key-centre stock gauge")
	}
	if key := `quhe_keyledger_withdrawals_total{cause="setup"}`; m[key] < 1 {
		t.Errorf("%s = %g, want ≥ 1", key, m[key])
	}
	if key := `quhe_keyledger_bytes_total{cause="setup"}`; m[key] < RekeyWithdrawBytes {
		t.Errorf("%s = %g, want ≥ %d", key, m[key], RekeyWithdrawBytes)
	}

	if body := getDebug(t, srv.DebugAddr(), "/debug/plan"); !strings.Contains(body, `"RouteLambda"`) {
		t.Errorf("/debug/plan must render the live plan, got %q", body)
	}
	body := getDebug(t, srv.DebugAddr(), "/debug/keyledger")
	var snap qkd.LedgerSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/keyledger: %v in %q", err, body)
	}
	if len(snap.Recent) == 0 || snap.Recent[0].Session != "ledger-sess" || snap.Recent[0].Cause != qkd.CauseSetup {
		t.Errorf("/debug/keyledger must open with the session's setup withdrawal, got %+v", snap.Recent)
	}
}
