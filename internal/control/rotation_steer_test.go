package control_test

import (
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/he/profile"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// lambdaOf resolves a planned profile ID to its λ so tests can compare
// security levels ordinally.
func lambdaOf(t *testing.T, id string) float64 {
	t.Helper()
	p, ok := profile.Default().Get(id)
	if !ok {
		t.Fatalf("plan references unknown profile %q", id)
	}
	return p.Lambda
}

// TestRotationHeavyRouteSteersLambda is the rotation-aware control
// acceptance test: two routes report identical byte demand, but one
// serves BSGS matvec traffic whose per-block rotation fan-out is fed
// through ObserveRotations. The planner must price the hoisted
// key-switch work and step the matvec route's λ below the affine
// route's — same bytes, different cost.
func TestRotationHeavyRouteSteersLambda(t *testing.T) {
	net := qnet.SURFnet()
	ctl, err := control.New(control.Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	affineID := control.SessionOnRoute(net.NumRoutes(), 1, "affine")
	matvecID := control.SessionOnRoute(net.NumRoutes(), 2, "matvec")

	tel := ctl.Telemetry()
	// Two observation rounds so the second snapshot sees a byte delta
	// over a measurable dt. Route 1 is affine-only; route 2 carries the
	// same bytes but every block fans out into hoisted rotations. Demand
	// is bytes over the time between the two snapshots, which a slow
	// Replan (the race detector) stretches: the matvec route steps down
	// only above ≈376 KB/s, so 512 KiB per snapshot holds it there for
	// any gap under a second, while the affine route stays at the top
	// level for any gap over ≈5 ms (the sleep below is 20).
	const blockBytes = 1 << 19
	const rotations = 1 << 12
	report := func() {
		tel.ObserveCompute(affineID, blockBytes, time.Millisecond, serve.CodeOK)
		tel.ObserveCompute(matvecID, blockBytes, time.Millisecond, serve.CodeOK)
		tel.ObserveRotations(matvecID, rotations)
	}
	report()
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	report()
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}

	affine := lambdaOf(t, plan.RouteProfile[1])
	matvec := lambdaOf(t, plan.RouteProfile[2])
	if matvec >= affine {
		t.Fatalf("rotation-heavy route planned λ=%.0f (%q), affine route λ=%.0f (%q); "+
			"want rotation cost to steer the matvec route below the affine route at equal bytes (RouteLambda=%v)",
			matvec, plan.RouteProfile[2], affine, plan.RouteProfile[1], plan.RouteLambda)
	}
	// The affine route's demand is deliberately modest: bytes alone must
	// not move it off the highest security level, so the matvec route's
	// step-down is attributable to the rotation term only.
	if plan.RouteProfile[1] != profile.IDLambda128k {
		t.Errorf("affine route moved to %q on bytes alone; rotation steering is untestable at this demand", plan.RouteProfile[1])
	}
	// Telemetry carries the rotation counts that drove the decision.
	snap := tel.Snapshot()
	for _, s := range snap.Sessions {
		if s.ID == matvecID && s.Rotations != 2*rotations {
			t.Errorf("session rotations = %d, want %d", s.Rotations, 2*rotations)
		}
		if s.ID == affineID && s.Rotations != 0 {
			t.Errorf("affine session recorded %d rotations", s.Rotations)
		}
	}
}
