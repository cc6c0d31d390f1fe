package qnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinaryEntropy(t *testing.T) {
	tests := []struct {
		p, want, tol float64
	}{
		{0, 0, 0},
		{1, 0, 0},
		{0.5, 1, 1e-12},
		{0.11, 0.499916, 1e-5}, // near the SKF threshold QBER
		{0.25, 0.811278, 1e-6},
	}
	for _, tt := range tests {
		if got := BinaryEntropy(tt.p); math.Abs(got-tt.want) > tt.tol {
			t.Errorf("h2(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(BinaryEntropy(-0.1)) || !math.IsNaN(BinaryEntropy(1.1)) {
		t.Error("out-of-range entropy did not return NaN")
	}
}

func TestSecretKeyFractionEndpoints(t *testing.T) {
	if got := SecretKeyFraction(1); got != 1 {
		t.Errorf("F_skf(1) = %v, want 1", got)
	}
	if got := SecretKeyFraction(0); got != 0 {
		t.Errorf("F_skf(0) = %v, want 0", got)
	}
	if got := SecretKeyFraction(-0.5); got != 0 {
		t.Errorf("F_skf(-0.5) = %v, want 0", got)
	}
	if got := SecretKeyFraction(1.5); got != 1 {
		t.Errorf("F_skf(1.5) = %v, want 1 (clamped)", got)
	}
}

// TestSecretKeyFractionThreshold pins the zero crossing the paper reads off
// Desmos: F_skf is zero at w = 0.779944 and positive just above.
func TestSecretKeyFractionThreshold(t *testing.T) {
	if got := SecretKeyFraction(WernerZeroSKF); got > 1e-9 {
		t.Errorf("F_skf at threshold = %v, want ≈0", got)
	}
	if got := SecretKeyFraction(WernerZeroSKF - 1e-3); got != 0 {
		t.Errorf("F_skf below threshold = %v, want 0", got)
	}
	if got := SecretKeyFraction(WernerZeroSKF + 1e-3); got <= 0 {
		t.Errorf("F_skf above threshold = %v, want > 0", got)
	}
	// Cross-check against the paper's constant.
	if math.Abs(WernerZeroSKF-0.779944) > 1e-6 {
		t.Errorf("threshold constant %v drifted from paper's 0.779944", WernerZeroSKF)
	}
}

// Property: F_skf is monotonically non-decreasing on (0,1).
func TestSecretKeyFractionMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return SecretKeyFraction(a) <= SecretKeyFraction(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: F_skf(w) = 1 − 2·h2((1−w)/2) whenever positive (Eq. 4's two
// equivalent forms agree).
func TestSecretKeyFractionFormulaEquivalence(t *testing.T) {
	for w := 0.78; w < 1; w += 0.001 {
		direct := 1 + (1+w)*math.Log2((1+w)/2) + (1-w)*math.Log2((1-w)/2)
		if direct < 0 {
			direct = 0
		}
		if got := SecretKeyFraction(w); math.Abs(got-direct) > 1e-10 {
			t.Fatalf("F_skf(%v) = %v, direct formula = %v", w, got, direct)
		}
	}
}

func TestQBER(t *testing.T) {
	if got := QBER(1); got != 0 {
		t.Errorf("QBER(1) = %v, want 0", got)
	}
	if got := QBER(0); got != 0.5 {
		t.Errorf("QBER(0) = %v, want 0.5", got)
	}
}

func TestUtilityKnownValue(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	w := make([]float64, 18)
	for i := range w {
		w[i] = 1 // perfect links → F_skf(̟)=1 for every route
	}
	u, err := n.Utility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-1) > 1e-12 {
		t.Errorf("Utility = %v, want 1", u)
	}
	// Doubling one rate doubles the product.
	phi[2] = 2
	u2, err := n.Utility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u2-2) > 1e-12 {
		t.Errorf("Utility = %v, want 2", u2)
	}
}

func TestUtilityZeroBelowThreshold(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	w := make([]float64, 18)
	for i := range w {
		w[i] = 0.9 // route 6 has 6 links: 0.9^6 ≈ 0.53 < threshold
	}
	u, err := n.Utility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0 {
		t.Errorf("Utility = %v, want 0 (below SKF threshold)", u)
	}
	lu, err := n.LogUtility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lu, -1) {
		t.Errorf("LogUtility = %v, want -Inf", lu)
	}
}

// LogUtility computes ln U_qkd = Σ_n [ln φ_n + ln F_skf(̟_n)], the form
// Stage 1 optimizes (Problem P2/P3): the oracle Stage1.Objective is held to. It returns −Inf when the utility is
// zero or an allocation is non-positive.
func (n *Network) LogUtility(phi, w []float64) (float64, error) {
	if len(phi) != len(n.routes) {
		return 0, fmt.Errorf("qnet: %d rates for %d routes", len(phi), len(n.routes))
	}
	s := 0.0
	for r := range n.routes {
		if phi[r] <= 0 {
			return math.Inf(-1), nil
		}
		wr, err := n.EndToEndWerner(r, w)
		if err != nil {
			return 0, err
		}
		f := SecretKeyFraction(wr)
		if f <= 0 {
			return math.Inf(-1), nil
		}
		s += math.Log(phi[r]) + math.Log(f)
	}
	return s, nil
}

func TestLogUtilityConsistentWithUtility(t *testing.T) {
	n := SURFnet()
	phi := []float64{2, 1.1, 1.1, 1.9, 0.7, 0.6}
	w, err := n.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	u, err := n.Utility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := n.LogUtility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if u <= 0 {
		t.Fatalf("expected positive utility, got %v", u)
	}
	if math.Abs(math.Log(u)-lu) > 1e-9 {
		t.Errorf("ln(U)=%v but LogUtility=%v", math.Log(u), lu)
	}
}

func TestLogUtilityNonPositiveRate(t *testing.T) {
	n := SURFnet()
	phi := []float64{0, 1, 1, 1, 1, 1}
	w := make([]float64, 18)
	for i := range w {
		w[i] = 1
	}
	lu, err := n.LogUtility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lu, -1) {
		t.Errorf("LogUtility with zero rate = %v, want -Inf", lu)
	}
}

// TestUtilityFromRates pins the Werner point of Eq. (18) as Stage 1's
// optimum for given rates: U_qkd is positive there, and lowering the
// Werner parameter of any link never raises it — strictly lowering it
// when a route crosses that link.
func TestUtilityFromRates(t *testing.T) {
	n := SURFnet()
	phi := []float64{2, 1, 1, 2, 0.7, 0.6}
	w, err := n.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	u, err := n.Utility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if u <= 0 {
		t.Fatalf("utility at the Eq. (18) point = %v, want > 0", u)
	}
	for l := 0; l < n.NumLinks(); l++ {
		lower := append([]float64(nil), w...)
		lower[l] -= 0.01
		ul, err := n.Utility(phi, lower)
		if err != nil {
			t.Fatal(err)
		}
		used := false
		for r := range phi {
			used = used || n.uses[r][l]
		}
		if ul > u || (used && ul >= u) {
			t.Errorf("link %d (used %v): utility %v after lowering w, %v at the Eq. (18) point", l, used, ul, u)
		}
	}
}

func TestUtilityDimensionErrors(t *testing.T) {
	n := SURFnet()
	w := make([]float64, 18)
	if _, err := n.Utility([]float64{1}, w); err == nil {
		t.Error("short phi accepted by Utility")
	}
	if _, err := n.LogUtility([]float64{1}, w); err == nil {
		t.Error("short phi accepted by LogUtility")
	}
}

// Property: the utility is monotone non-decreasing in every Werner
// parameter (better links never hurt), as exploited by Eq. (18).
func TestUtilityMonotoneInWerner(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 1, 1, 1, 1, 1}
	base := make([]float64, 18)
	for i := range base {
		base[i] = 0.97
	}
	u0, err := n.Utility(phi, base)
	if err != nil {
		t.Fatal(err)
	}
	if u0 <= 0 {
		t.Fatalf("base utility %v not positive", u0)
	}
	for l := 0; l < 18; l++ {
		bumped := append([]float64(nil), base...)
		bumped[l] = 0.99
		u1, err := n.Utility(phi, bumped)
		if err != nil {
			t.Fatal(err)
		}
		if u1 < u0-1e-12 {
			t.Errorf("improving link %d decreased utility: %v -> %v", l+1, u0, u1)
		}
	}
}

// Property: utility is homogeneous of degree N in the rates:
// U(c·φ) = c^N · U(φ) at fixed w.
func TestUtilityRateHomogeneity(t *testing.T) {
	n := SURFnet()
	phi := []float64{1, 0.9, 0.8, 1.1, 0.7, 0.6}
	w := make([]float64, 18)
	for i := range w {
		w[i] = 0.98
	}
	u1, err := n.Utility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(phi))
	for i := range phi {
		scaled[i] = 1.5 * phi[i]
	}
	u2, err := n.Utility(scaled, w)
	if err != nil {
		t.Fatal(err)
	}
	want := u1 * math.Pow(1.5, float64(len(phi)))
	if math.Abs(u2-want)/want > 1e-9 {
		t.Errorf("U(1.5φ) = %v, want %v", u2, want)
	}
}

// Property: WernerFromRates inverts LinkCapacity: at w* the load equals
// the capacity exactly on every loaded link.
func TestWernerFromRatesSaturatesCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := SURFnet()
		phi := make([]float64, 6)
		for i := range phi {
			phi[i] = 0.5 + rng.Float64()*2
		}
		w, err := n.WernerFromRates(phi)
		if err != nil {
			return false
		}
		loads, err := n.LinkLoads(phi)
		if err != nil {
			return false
		}
		for l := range loads {
			capacity := LinkCapacity(n.Link(l).Beta, w[l])
			if math.Abs(loads[l]-capacity) > 1e-9*(1+capacity) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
