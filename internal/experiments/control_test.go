package experiments

import "testing"

// TestControlLoopDynamicBeatsStatic runs the closed-loop experiment and
// asserts the qualitative claim it quantifies: under a finite key stock
// the static budget strands blocks once the pool is dry, while the control
// plane adapts the rekey cadence (or sheds with typed denials) and ends
// with strictly higher utility.
func TestControlLoopDynamicBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-plane experiment")
	}
	res, err := ControlLoop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Static.Stranded == 0 {
		t.Errorf("static scenario never exhausted its key stock (served %d, rekeys %d, stock left %d) — the experiment lost its point",
			res.Static.Served, res.Static.Rekeys, res.Static.KeyBytesLeft)
	}
	if res.Static.Errors != 0 || res.Dynamic.Errors != 0 {
		t.Errorf("unexpected hard errors: static %d, dynamic %d", res.Static.Errors, res.Dynamic.Errors)
	}
	if res.Dynamic.Served <= res.Static.Served {
		t.Errorf("dynamic served %d, static %d — control loop did not help", res.Dynamic.Served, res.Static.Served)
	}
	if res.UtilityGain <= 0 {
		t.Errorf("utility gain %g, want > 0 (dynamic %g, static %g)",
			res.UtilityGain, res.Dynamic.Utility, res.Static.Utility)
	}
	// Losses under control are typed admission denials, never the
	// static scenario's strand-on-exhaustion failure mode.
	if res.Dynamic.Stranded >= res.Static.Stranded {
		t.Errorf("dynamic stranded %d blocks, static %d — budgets did not adapt", res.Dynamic.Stranded, res.Static.Stranded)
	}
	if res.PlanSeq < 2 {
		t.Errorf("controller published %d plans, want ≥ 2", res.PlanSeq)
	}
}
