package core

import (
	"math"
	"testing"

	"quhe/internal/mathutil"
	"quhe/internal/qnet"
)

// paperTableV holds the optimal φ the paper reports for QuHE Stage 1
// (Table V). Stage 1 is deterministic given the SURFnet topology, so our
// interior-point solution must match it almost exactly.
var paperTableV = []float64{2.098, 1.106, 1.103, 1.872, 0.6864, 0.5781}

// paperTableVI holds the paper's optimal w values (Table VI).
var paperTableVI = []float64{
	0.9766, 0.9610, 0.9857, 0.9682, 0.9661, 1.0000,
	0.9893, 0.9897, 0.9931, 0.9891, 0.9840, 0.9744,
	0.9759, 0.9851, 0.9611, 0.9866, 0.9646, 0.9600,
}

func TestStage1MatchesPaperTableV(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveStage1(Stage1Options{Method: Stage1Barrier})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range paperTableV {
		if math.Abs(res.Phi[i]-want) > 5e-3 {
			t.Errorf("φ[%d] = %.4f, paper Table V reports %.4f", i+1, res.Phi[i], want)
		}
	}
	// Paper Fig. 5(c): Stage-1 objective 4.58.
	if math.Abs(res.Objective-4.58) > 0.02 {
		t.Errorf("Stage-1 objective = %.4f, paper reports 4.58", res.Objective)
	}
}

func TestStage1MatchesPaperTableVI(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveStage1(Stage1Options{Method: Stage1Barrier})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != len(paperTableVI) {
		t.Fatalf("W has %d entries, want %d", len(res.W), len(paperTableVI))
	}
	for l, want := range paperTableVI {
		if math.Abs(res.W[l]-want) > 5e-3 {
			t.Errorf("w[%d] = %.4f, paper Table VI reports %.4f", l+1, res.W[l], want)
		}
	}
}

func TestStage1SolutionFeasible(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveStage1(Stage1Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Phi {
		if res.Phi[i] < c.PhiMin[i]-1e-9 {
			t.Errorf("φ[%d] = %v below minimum %v", i, res.Phi[i], c.PhiMin[i])
		}
	}
	if !c.Net.FeasibleRates(res.Phi) {
		t.Error("solution violates link capacities")
	}
	for r := range res.Phi {
		wr, err := c.Net.EndToEndWerner(r, res.W)
		if err != nil {
			t.Fatal(err)
		}
		if wr <= qnet.WernerZeroSKF {
			t.Errorf("route %d end-to-end werner %v below SKF threshold", r+1, wr)
		}
	}
}

func TestStage1GDMatchesBarrier(t *testing.T) {
	c := PaperConfig(1)
	barrier, err := c.SolveStage1(Stage1Options{Method: Stage1Barrier})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := c.SolveStage1(Stage1Options{Method: Stage1GD, GDIters: 60000})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 5(c): GD reaches the same objective as QuHE Stage 1
	// (4.58), only much more slowly.
	if gd.Objective < barrier.Objective-1e-6 {
		t.Errorf("GD (%v) beat the barrier (%v): barrier not optimal?", gd.Objective, barrier.Objective)
	}
	if gd.Objective > barrier.Objective+0.05 {
		t.Errorf("GD objective %v too far above barrier %v", gd.Objective, barrier.Objective)
	}
	if gd.Iters <= barrier.Iters {
		t.Errorf("GD used %d iters, barrier %d — expected GD to need far more", gd.Iters, barrier.Iters)
	}
}

func TestStage1BaselineOrdering(t *testing.T) {
	c := PaperConfig(1)
	barrier, err := c.SolveStage1(Stage1Options{Method: Stage1Barrier})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := c.SolveStage1(Stage1Options{Method: Stage1SA, SAIters: 40000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.SolveStage1(Stage1Options{Method: Stage1RS, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5(c) ordering (minimization): QuHE ≤ SA < RS.
	if sa.Objective < barrier.Objective-1e-6 {
		t.Errorf("SA (%v) beat the barrier (%v)", sa.Objective, barrier.Objective)
	}
	if rs.Objective < barrier.Objective-1e-6 {
		t.Errorf("RS (%v) beat the barrier (%v)", rs.Objective, barrier.Objective)
	}
	if rs.Objective <= sa.Objective {
		t.Logf("note: RS (%v) not worse than SA (%v) on this seed", rs.Objective, sa.Objective)
	}
	if rs.Objective < barrier.Objective+0.1 {
		t.Errorf("RS objective %v suspiciously close to optimal %v", rs.Objective, barrier.Objective)
	}
}

func TestStage1UtilityAgreesWithLogObjective(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveStage1(Stage1Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Objective = −ln α_qkd − ln U_qkd, so U_qkd = exp(−obj) at α_qkd=1.
	want := math.Exp(-res.Objective)
	if math.Abs(res.UQKD-want)/want > 1e-6 {
		t.Errorf("UQKD = %v, want exp(−obj) = %v", res.UQKD, want)
	}
}

func TestStage1TraceDecreases(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveStage1(Stage1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 3 {
		t.Fatalf("trace too short: %d", len(res.Trace))
	}
	// The barrier trace is not strictly monotone across re-centerings, but
	// the end must improve on the start (Fig. 4(a) decreasing shape).
	if res.Trace[len(res.Trace)-1] >= res.Trace[0] {
		t.Errorf("trace did not decrease: first %v last %v", res.Trace[0], res.Trace[len(res.Trace)-1])
	}
	// The path is pinned as well as its end: Algorithm 1 takes 20 Newton
	// steps to the objective 4.584613368892 on PaperConfig (the same on
	// every seed; Stage 1 draws nothing from it).
	if res.Iters != 20 || len(res.Trace) != 20 {
		t.Errorf("%d Newton steps, %d trace entries, want 20", res.Iters, len(res.Trace))
	}
	if math.Abs(res.Objective-4.584613368892) > 1e-9 {
		t.Errorf("objective %.12f, want 4.584613368892 ± 1e-9", res.Objective)
	}
}

func TestStage1UnknownMethod(t *testing.T) {
	c := PaperConfig(1)
	if _, err := c.SolveStage1(Stage1Options{Method: Stage1Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestStage1MethodString(t *testing.T) {
	tests := []struct {
		m    Stage1Method
		want string
	}{
		{Stage1Barrier, "QuHE"},
		{Stage1GD, "GD"},
		{Stage1SA, "SA"},
		{Stage1RS, "RS"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.m), got, tt.want)
		}
	}
	if got := Stage1Method(42).String(); got != "Stage1Method(42)" {
		t.Errorf("unknown method String = %q", got)
	}
}

func TestStage1PenalizedMatchesObjectiveInside(t *testing.T) {
	c := PaperConfig(1)
	prog, err := qnet.NewStage1(c.Net, c.PhiMin)
	if err != nil {
		t.Fatal(err)
	}
	phi := mathutil.Clone(paperTableV)
	if got, want := prog.Penalized(phi), prog.Objective(phi); got != want {
		t.Errorf("penalized (%v) != raw (%v) at feasible point", got, want)
	}
	// Outside: finite, larger than any feasible value.
	bad := mathutil.Fill(6, 100)
	if got := prog.Penalized(bad); math.IsInf(got, 0) || got < 1e3 {
		t.Errorf("penalized at infeasible point = %v, want finite ≥ 1e3", got)
	}
}
