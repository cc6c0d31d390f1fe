package control_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/qkd"
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
// registry BindServe hands it: replans from the binding on are counted
// and timed, key-centre series show up in the Prometheus exposition, and
// PlanJSON exposes the live plan.
func TestControllerMetrics(t *testing.T) {
	ctl, err := control.New(control.Config{Network: qnet.SURFnet(), KeyCenter: qkd.NewKeyCenter()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctl.BindServe(nil, reg)
	for i := 0; i < 2; i++ {
		if _, err := ctl.Replan(); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"quhe_control_replans_total 2",
		"quhe_control_replan_seconds_count 2",
		"quhe_control_replan_failures_total 0",
		"quhe_qkd_stock_bytes 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	if ctl.PlanJSON() == nil {
		t.Error("PlanJSON must expose the live plan")
	}
}

// TestReplanInstrumentsAllocateNothing: binding the instruments adds no
// allocation to a replan, which the churn workload runs on every op of
// its first lane; a replan at one session, which re-solves no Stage 1
// (New fixes its inputs and solves it), stays within 32 allocations; and
// what a replan allocates per session it plans for stays under one
// object, so routing a session allocates nothing.
func TestReplanInstrumentsAllocateNothing(t *testing.T) {
	replanAllocs := func(bind bool, sessions int) float64 {
		ctl, err := control.New(control.Config{Network: qnet.SURFnet(), KeyCenter: qkd.NewKeyCenter()})
		if err != nil {
			t.Fatal(err)
		}
		if bind {
			ctl.BindServe(nil, obs.NewRegistry())
		}
		for i := 0; i < sessions; i++ {
			id := fmt.Sprintf("s%d", i)
			ctl.ObserveSession(id, profile.IDLambda32k)
			ctl.ObserveCompute(id, 1<<10, time.Millisecond, serve.CodeOK)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ctl.Replan(); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, bound := replanAllocs(false, 1), replanAllocs(true, 1)
	if bound > bare {
		t.Errorf("a replan allocates %.0f times with its instruments bound, %.0f without", bound, bare)
	}
	if bound > 32 {
		t.Errorf("a replan at one session allocates %.0f times, want ≤ 32: is Stage 1 re-solved per replan?", bound)
	}
	many := replanAllocs(true, 65)
	if many-bound > 64 {
		t.Errorf("a replan over 65 sessions allocates %.0f times, %.0f more than over one", many, many-bound)
	}
	t.Logf("%.0f allocations per replan bound, %.0f without; %.0f over 65 sessions", bound, bare, many)
}
