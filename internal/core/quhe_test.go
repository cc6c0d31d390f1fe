package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestQuHEConvergesAndIsFeasible(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveQuHE(QuHEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("QuHE did not converge")
	}
	if res.OuterIters > 10 {
		t.Errorf("QuHE took %d outer iterations", res.OuterIters)
	}
	final := res.Vars.Clone()
	final.T = res.Eval.Delay // T must cover the true max delay
	if err := checkFeasible(c, final, 1e-6); err != nil {
		t.Errorf("QuHE solution infeasible: %v", err)
	}
	if res.StageCalls[0] != 1 {
		t.Errorf("stage 1 called %d times, want 1 (Fig. 5(a))", res.StageCalls[0])
	}
}

// TestSolveQuHEObjectivePinned pins the P1 objective SolveQuHE reaches on
// five paper configurations, so a change to how the stages are solved
// cannot move the optimum unnoticed. Barriers on finite-difference and on
// exact derivatives both reach these values, to ~1e-12.
func TestSolveQuHEObjectivePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want float64
	}{
		{1, 7.91263764922},
		{2, 7.86831465965},
		{3, 7.90029575738},
		{7, 7.91777359533},
		{42, 7.82661211768},
	} {
		res, err := PaperConfig(tc.seed).SolveQuHE(QuHEOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if got := res.Eval.Objective; math.Abs(got-tc.want) > 1e-6*math.Abs(tc.want) {
			t.Errorf("seed %d: objective %.11f, want %.11f (±1e-6 relative)", tc.seed, got, tc.want)
		}
	}
}

// TestMethodOrdering pins the headline shape of Fig. 5(d):
// AA < OLAA, AA < OCCR, and QuHE strictly dominates every baseline.
func TestMethodOrdering(t *testing.T) {
	c := PaperConfig(1)
	quhe, err := c.SolveQuHE(QuHEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aa, err := c.SolveBaseline(BaselineAA)
	if err != nil {
		t.Fatal(err)
	}
	olaa, err := c.SolveBaseline(BaselineOLAA)
	if err != nil {
		t.Fatal(err)
	}
	occr, err := c.SolveBaseline(BaselineOCCR)
	if err != nil {
		t.Fatal(err)
	}
	if !(aa.Eval.Objective < olaa.Eval.Objective) {
		t.Errorf("AA (%v) not below OLAA (%v)", aa.Eval.Objective, olaa.Eval.Objective)
	}
	if !(aa.Eval.Objective < occr.Eval.Objective) {
		t.Errorf("AA (%v) not below OCCR (%v)", aa.Eval.Objective, occr.Eval.Objective)
	}
	if !(quhe.Eval.Objective > occr.Eval.Objective) {
		t.Errorf("QuHE (%v) not above OCCR (%v)", quhe.Eval.Objective, occr.Eval.Objective)
	}
	if !(quhe.Eval.Objective > olaa.Eval.Objective) {
		t.Errorf("QuHE (%v) not above OLAA (%v)", quhe.Eval.Objective, olaa.Eval.Objective)
	}
	// Energy shape: QuHE and OCCR well below AA and OLAA.
	if !(quhe.Eval.Energy < aa.Eval.Energy && occr.Eval.Energy < aa.Eval.Energy) {
		t.Errorf("energy shape violated: QuHE %v, OCCR %v, AA %v",
			quhe.Eval.Energy, occr.Eval.Energy, aa.Eval.Energy)
	}
	// Security shape: QuHE and OLAA above AA and OCCR.
	if !(quhe.Eval.UMSL > aa.Eval.UMSL && olaa.Eval.UMSL > occr.Eval.UMSL) {
		t.Errorf("security shape violated: QuHE %v, OLAA %v, AA %v, OCCR %v",
			quhe.Eval.UMSL, olaa.Eval.UMSL, aa.Eval.UMSL, occr.Eval.UMSL)
	}
}

func TestQuHEFromRandomStartsStaysGood(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-start study is slow")
	}
	c := PaperConfig(1)
	ref, err := c.SolveQuHE(QuHEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		v, err := c.SampleVariables(rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.SolveQuHE(QuHEOptions{Initial: &v})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Fig. 3: most random starts land close to the best objective.
		if res.Eval.Objective < ref.Eval.Objective-2 {
			t.Errorf("trial %d: objective %v far below reference %v",
				trial, res.Eval.Objective, ref.Eval.Objective)
		}
	}
}

// TestQuHEExhaustiveStage2Matches checks that the λ SolveQuHE ends on is
// the exhaustive Stage-2 optimum at its final variables.
func TestQuHEExhaustiveStage2Matches(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveQuHE(QuHEOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lambda, _, _ := exhaustiveStage2(t, c, res.Vars)
	if !slices.Equal(res.Vars.Lambda, lambda) {
		t.Errorf("final λ %v, exhaustive optimum at the final variables %v", res.Vars.Lambda, lambda)
	}
}

func TestBaselineKindString(t *testing.T) {
	tests := []struct {
		k    BaselineKind
		want string
	}{
		{BaselineAA, "AA"},
		{BaselineOLAA, "OLAA"},
		{BaselineOCCR, "OCCR"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.k), got, tt.want)
		}
	}
	if got := BaselineKind(9).String(); got != "BaselineKind(9)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestSolveBaselineUnknownKind(t *testing.T) {
	c := PaperConfig(1)
	if _, err := c.SolveBaseline(BaselineKind(42)); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestBaselineAAUsesStatedAllocation(t *testing.T) {
	c := PaperConfig(1)
	res, err := c.SolveBaseline(BaselineAA)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(c.N())
	for i := range res.Vars.P {
		if res.Vars.P[i] != c.PMax[i] {
			t.Errorf("AA p[%d] = %v, want p_max", i, res.Vars.P[i])
		}
		if res.Vars.B[i] != c.BTotal/n {
			t.Errorf("AA b[%d] = %v, want B_total/N", i, res.Vars.B[i])
		}
		if res.Vars.FC[i] != c.FCMax[i] {
			t.Errorf("AA fc[%d] = %v, want f_c^max", i, res.Vars.FC[i])
		}
		if res.Vars.FS[i] != c.FSTotal/n {
			t.Errorf("AA fs[%d] = %v, want f_total/N", i, res.Vars.FS[i])
		}
		if res.Vars.Lambda[i] != c.LambdaSet[0] {
			t.Errorf("AA λ[%d] = %v, want smallest", i, res.Vars.Lambda[i])
		}
	}
}

// TestStatedAlphaMSLAblation documents the calibration: under the stated
// α_msl = 1e-2 no method ever upgrades λ, so OLAA degenerates to AA — the
// behaviour that contradicts the paper's Fig. 5(d) and motivated
// CalibratedAlphaMSL.
func TestStatedAlphaMSLAblation(t *testing.T) {
	c := PaperConfig(1)
	c.AlphaMSL = StatedAlphaMSL
	olaa, err := c.SolveBaseline(BaselineOLAA)
	if err != nil {
		t.Fatal(err)
	}
	for i, lam := range olaa.Vars.Lambda {
		if lam != c.LambdaSet[0] {
			t.Errorf("stated α_msl: OLAA upgraded λ[%d] to %v", i, lam)
		}
	}
	aa, err := c.SolveBaseline(BaselineAA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(olaa.Eval.Objective-aa.Eval.Objective) > 1e-9 {
		t.Errorf("stated α_msl: OLAA (%v) != AA (%v)", olaa.Eval.Objective, aa.Eval.Objective)
	}
}
