package core

import (
	"math"
	"testing"
)

// stage2Fixture returns a config and variables after Stage 1, with server
// shares low enough that λ upgrades are profitable for high-ς clients.
func stage2Fixture(t *testing.T) (*Config, Variables) {
	t.Helper()
	c := PaperConfig(1)
	v, err := c.DefaultVariables()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.SolveStage1(Stage1Options{})
	if err != nil {
		t.Fatal(err)
	}
	v.Phi, v.W = s1.Phi, s1.W
	return c, v
}

func TestStage2BnBMatchesExhaustive(t *testing.T) {
	c, v := stage2Fixture(t)
	// Try several server allocations to exercise different optimal mixes.
	for _, scale := range []float64{0.2, 0.5, 1.0} {
		vv := v.Clone()
		for i := range vv.FS {
			vv.FS[i] *= scale
		}
		bnb, err := c.SolveStage2(vv, true)
		if err != nil {
			t.Fatalf("scale %v bnb: %v", scale, err)
		}
		exh, err := c.SolveStage2(vv, false)
		if err != nil {
			t.Fatalf("scale %v exhaustive: %v", scale, err)
		}
		if math.Abs(bnb.Objective-exh.Objective) > 1e-9 {
			t.Errorf("scale %v: BnB obj %v != exhaustive %v", scale, bnb.Objective, exh.Objective)
		}
		for i := range bnb.Lambda {
			if bnb.Lambda[i] != exh.Lambda[i] {
				t.Errorf("scale %v: λ[%d] BnB %v != exhaustive %v", scale, i, bnb.Lambda[i], exh.Lambda[i])
			}
		}
	}
}

func TestStage2BnBPrunes(t *testing.T) {
	c, v := stage2Fixture(t)
	bnb, err := c.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := c.SolveStage2(v, false)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive evaluates 3^6 = 729 leaves; BnB should expand fewer nodes.
	if exh.Nodes != 729 {
		t.Errorf("exhaustive evals = %d, want 729", exh.Nodes)
	}
	if bnb.Nodes >= exh.Nodes {
		t.Errorf("BnB nodes %d >= exhaustive %d: no pruning", bnb.Nodes, exh.Nodes)
	}
}

func TestStage2SecurityWeightDrivesUpgrade(t *testing.T) {
	c, v := stage2Fixture(t)
	// With tiny α_msl nothing upgrades.
	small := c.Clone()
	small.AlphaMSL = 1e-6
	res, err := small.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, lam := range res.Lambda {
		if lam != small.LambdaSet[0] {
			t.Errorf("α_msl→0: λ[%d] = %v, want smallest", i, lam)
		}
	}
	// With huge α_msl everything maxes out.
	big := c.Clone()
	big.AlphaMSL = 10
	res, err = big.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, lam := range res.Lambda {
		if lam != big.LambdaSet[len(big.LambdaSet)-1] {
			t.Errorf("α_msl→∞: λ[%d] = %v, want largest", i, lam)
		}
	}
}

func TestStage2TS2IsMaxDelay(t *testing.T) {
	c, v := stage2Fixture(t)
	res, err := c.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	maxD := 0.0
	for i := range res.Lambda {
		d := c.ClientDelay(i, res.Lambda[i], v.P[i], v.B[i], v.FC[i], v.FS[i])
		if d > maxD {
			maxD = d
		}
	}
	if math.Abs(res.TS2-maxD)/maxD > 1e-9 {
		t.Errorf("TS2 = %v, max delay = %v", res.TS2, maxD)
	}
}

func TestStage2HigherWeightGetsNoLessSecurity(t *testing.T) {
	c, v := stage2Fixture(t)
	// Shrink server shares to make upgrades cheap and differential.
	for i := range v.FS {
		v.FS[i] *= 0.3
	}
	res, err := c.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	// Clients are ordered by ς (0.1,0.1,0.1,0.2,0.2,0.3): the chosen λ must
	// be non-decreasing in ς when everything else is symmetric. Clients
	// differ in gains, but λ only interacts with fs/delay, which are near
	// symmetric here; allow equality.
	if res.Lambda[5] < res.Lambda[0] {
		t.Errorf("highest-ς client got λ %v < lowest-ς client's %v", res.Lambda[5], res.Lambda[0])
	}
}

func TestStage3ConstraintsHold(t *testing.T) {
	c, v := stage2Fixture(t)
	s2, err := c.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	v.Lambda = s2.Lambda
	s3, err := c.SolveStage3(v)
	if err != nil {
		t.Fatal(err)
	}
	final := v.Clone()
	final.P, final.B, final.FC, final.FS, final.T = s3.P, s3.B, s3.FC, s3.FS, s3.T
	if err := checkFeasible(c, final, 1e-6); err != nil {
		t.Errorf("stage 3 solution infeasible: %v", err)
	}
}

func TestStage3ImprovesOnStart(t *testing.T) {
	c, v := stage2Fixture(t)
	s2, err := c.SolveStage2(v, true)
	if err != nil {
		t.Fatal(err)
	}
	v.Lambda = s2.Lambda

	startEval, err := c.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	startCost := c.AlphaT*startEval.Delay + c.AlphaE*startEval.Energy

	s3, err := c.SolveStage3(v)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Converged {
		t.Error("stage 3 did not converge")
	}
	if s3.Objective > startCost+1e-9 {
		t.Errorf("stage 3 cost %v worse than start %v", s3.Objective, startCost)
	}
}

func TestStage3GapTraceReachesTolerance(t *testing.T) {
	c, v := stage2Fixture(t)
	s3, err := c.SolveStage3(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3.Gaps) == 0 {
		t.Fatal("no duality-gap trace")
	}
	minGap := math.Inf(1)
	for _, g := range s3.Gaps {
		if g < minGap {
			minGap = g
		}
	}
	// Fig. 4(d): the gap reaches ~1e-5 or below.
	if minGap > 1e-5 {
		t.Errorf("min duality gap %v, want ≤ 1e-5", minGap)
	}
}

func TestStage3POBJTraceRecorded(t *testing.T) {
	c, v := stage2Fixture(t)
	s3, err := c.SolveStage3(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3.POBJ) < 10 {
		t.Errorf("POBJ trace has only %d points", len(s3.POBJ))
	}
	for _, p := range s3.POBJ {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("non-finite POBJ entry %v", p)
		}
	}
}

func TestStage3LambdaMismatch(t *testing.T) {
	c, v := stage2Fixture(t)
	v.Lambda = v.Lambda[:2]
	if _, err := c.SolveStage3(v); err == nil {
		t.Error("short lambda accepted")
	}
}

func TestStage3PowerWithinBounds(t *testing.T) {
	c, v := stage2Fixture(t)
	s3, err := c.SolveStage3(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s3.P {
		if s3.P[i] <= 0 || s3.P[i] > c.PMax[i]*(1+1e-9) {
			t.Errorf("p[%d] = %v outside (0, %v]", i, s3.P[i], c.PMax[i])
		}
		if s3.FC[i] <= 0 || s3.FC[i] > c.FCMax[i]*(1+1e-9) {
			t.Errorf("fc[%d] = %v outside (0, %v]", i, s3.FC[i], c.FCMax[i])
		}
	}
}
