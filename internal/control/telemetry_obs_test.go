package control_test

import (
	"strings"
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// TestSnapshotLatencyQuantiles pins the histogram-quantile telemetry the
// replanner consumes: the per-profile p99 of the merged session
// histograms.
func TestSnapshotLatencyQuantiles(t *testing.T) {
	tel := control.NewTelemetry()
	tel.ObserveSession("s", profile.IDLambda32k)
	for i := 0; i < 90; i++ {
		tel.ObserveCompute("s", 100, 10*time.Millisecond, serve.CodeOK)
	}
	for i := 0; i < 10; i++ {
		tel.ObserveCompute("s", 100, time.Second, serve.CodeOK)
	}
	snap := tel.Snapshot()
	if len(snap.Sessions) != 1 {
		t.Fatalf("want 1 session, got %d", len(snap.Sessions))
	}
	// Rank 99 of 100 lands in the 1s tail a mean would smooth away.
	ps := snap.Profiles[profile.IDLambda32k]
	if ps.LatencyP99Ms < 900 {
		t.Errorf("profile p99 = %gms, must see the 1s tail", ps.LatencyP99Ms)
	}
}

// TestControllerMetrics pins the control plane's instrumentation on the
// shared registry: replan counters/durations and key-centre series show
// up in the Prometheus exposition, and PlanJSON exposes the live plan.
func TestControllerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ctl, err := control.New(control.Config{Network: qnet.SURFnet(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "quhe_control_replans_total 2") {
		t.Errorf("replan counter missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "quhe_control_replan_seconds_count 2") {
		t.Errorf("replan duration histogram missing:\n%s", text)
	}
	if ctl.PlanJSON() == nil {
		t.Error("PlanJSON must expose the live plan")
	}
}
