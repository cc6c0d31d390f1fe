package core

import (
	"math"
	"slices"
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

// exhaustiveStage2 is Stage 2's correctness oracle: it enumerates every
// assignment of LambdaSet indices over the program stage2Terms fills at v
// and returns the best λ per client, its F_s2 value and the number of
// leaves valued.
func exhaustiveStage2(t *testing.T, c *Config, v Variables) (lambda []float64, best float64, leaves int) {
	t.Helper()
	prog, err := c.stage2Terms(v)
	if err != nil {
		t.Fatal(err)
	}
	n, m := c.N(), len(c.LambdaSet)
	cur, arg := make([]int, n), make([]int, n)
	best = math.Inf(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			leaves++
			val, dmax := prog.Const, 0.0
			for i, j := range cur {
				val += prog.Reward[i][j]
				dmax = math.Max(dmax, prog.Delay[i][j])
			}
			if val -= prog.AlphaT * dmax; val > best {
				best = val
				copy(arg, cur)
			}
			return
		}
		for j := 0; j < m; j++ {
			cur[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	lambda = make([]float64, n)
	for i, j := range arg {
		lambda[i] = c.LambdaSet[j]
	}
	return lambda, best, leaves
}

func TestStage2BnBMatchesExhaustive(t *testing.T) {
	c, v := stage2Fixture(t)
	// Try several server allocations to exercise different optimal mixes.
	for _, scale := range []float64{0.2, 0.5, 1.0} {
		vv := v.Clone()
		for i := range vv.FS {
			vv.FS[i] *= scale
		}
		bnb, err := c.SolveStage2(vv)
		if err != nil {
			t.Fatalf("scale %v bnb: %v", scale, err)
		}
		lambda, best, _ := exhaustiveStage2(t, c, vv)
		if math.Abs(bnb.Objective-best) > 1e-9 {
			t.Errorf("scale %v: BnB obj %v != exhaustive %v", scale, bnb.Objective, best)
		}
		for i := range bnb.Lambda {
			if bnb.Lambda[i] != lambda[i] {
				t.Errorf("scale %v: λ[%d] BnB %v != exhaustive %v", scale, i, bnb.Lambda[i], lambda[i])
			}
		}
	}
}

func TestStage2BnBPrunes(t *testing.T) {
	c, v := stage2Fixture(t)
	bnb, err := c.SolveStage2(v)
	if err != nil {
		t.Fatal(err)
	}
	_, _, leaves := exhaustiveStage2(t, c, v)
	// Exhaustive values 3^6 = 729 leaves; BnB should expand fewer nodes.
	if leaves != 729 {
		t.Errorf("exhaustive leaves = %d, want 729", leaves)
	}
	if bnb.Nodes >= leaves {
		t.Errorf("BnB nodes %d >= exhaustive %d: no pruning", bnb.Nodes, leaves)
	}
}

// TestStage2Pinned pins the last Stage-2 solve of SolveQuHE on five paper
// configurations bit for bit — λ, T*_s2, the objective, the node count and
// the bound trace — so a change to how Stage 2 is solved cannot move its
// result or its search unnoticed. The values are those of an amd64 build.
func TestStage2Pinned(t *testing.T) {
	const lo, hi = 32768, 131072
	for _, tc := range []struct {
		seed     int64
		ts2, obj float64
		nodes    int
		trace    []float64
		lambda   [6]float64
	}{
		{1, 15438.797557160824, 7.912605922982097, 10,
			[]float64{9.850112738613086, 8.881251531249625, 8.703926070625588, 8.055807556998753, 7.9126077870218, 7.91260592351272, 7.912605923470963, 7.912605922982097, 7.735064863262125},
			[6]float64{lo, lo, lo, hi, hi, hi}},
		{2, 15794.415142145017, 7.868308462387748, 9,
			[]float64{9.810429033034142, 8.83880542418564, 8.553145993352661, 7.868310766541379, 7.868308462387748, 7.868308462387748, 7.868308462387748, 7.846554579041312},
			[6]float64{lo, lo, lo, hi, hi, hi}},
		{3, 15468.581904420671, 7.900246699785055, 10,
			[]float64{9.836949310921577, 8.867314725506741, 8.635931119401166, 7.989508456355768, 7.900248288968203, 7.900246699881958, 7.900246699785055, 7.900246699785055, 7.677342312690017},
			[6]float64{lo, lo, lo, hi, hi, hi}},
		{7, 15415.780348357317, 7.917728249126176, 10,
			[]float64{9.85753770088138, 8.886722434223337, 8.710409181452272, 7.948700838238528, 7.917730152191472, 7.917728249355871, 7.917728249355871, 7.917728249126176, 7.739593914794231},
			[6]float64{lo, lo, lo, hi, hi, hi}},
		{42, 15980.421544439054, 7.826570163816128, 10,
			[]float64{9.767174449622065, 8.798652022787273, 8.638170932816623, 7.9902503131682145, 7.826572000157507, 7.826570163816128, 7.826570163816128, 7.826570163816128, 7.669648505981833},
			[6]float64{lo, lo, lo, hi, hi, hi}},
	} {
		res, err := PaperConfig(tc.seed).SolveQuHE(QuHEOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		s2 := res.Stage2
		if !slices.Equal(s2.Lambda, tc.lambda[:]) || s2.TS2 != tc.ts2 || s2.Objective != tc.obj ||
			s2.Nodes != tc.nodes || !slices.Equal(s2.Trace, tc.trace) {
			t.Errorf("seed %d: Stage 2 λ %v TS2 %v objective %v nodes %d trace %v; want λ %v TS2 %v objective %v nodes %d trace %v",
				tc.seed, s2.Lambda, s2.TS2, s2.Objective, s2.Nodes, s2.Trace, tc.lambda, tc.ts2, tc.obj, tc.nodes, tc.trace)
		}
	}
}

func TestStage2SecurityWeightDrivesUpgrade(t *testing.T) {
	c, v := stage2Fixture(t)
	// With tiny α_msl nothing upgrades.
	small := c.Clone()
	small.AlphaMSL = 1e-6
	res, err := small.SolveStage2(v)
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
	res, err = big.SolveStage2(v)
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
	res, err := c.SolveStage2(v)
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
	res, err := c.SolveStage2(v)
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
	s2, err := c.SolveStage2(v)
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
	s2, err := c.SolveStage2(v)
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
