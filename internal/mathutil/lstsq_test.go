package mathutil

import (
	"math"
	"math/rand"
	"testing"
)

// polyEval evaluates a polynomial with ascending coefficients at x using
// Horner's rule.
func polyEval(coeffs []float64, x float64) float64 {
	var y float64
	for i := len(coeffs) - 1; i >= 0; i-- {
		y = y*x + coeffs[i]
	}
	return y
}

func TestPolyFitExactLine(t *testing.T) {
	// y = 1.4789 + 0.002x — the paper's f_msl model.
	xs := []float64{32768, 65536, 131072}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.4789 + 0.002*x
	}
	a, b, err := LinFit(xs, ys)
	if err != nil {
		t.Fatalf("LinFit: %v", err)
	}
	if !ApproxEqual(a, 1.4789, 1e-6) || !ApproxEqual(b, 0.002, 1e-9) {
		t.Errorf("LinFit = (%v, %v), want (1.4789, 0.002)", a, b)
	}
}

func TestPolyFitQuadratic(t *testing.T) {
	// y = 3 - 2x + 0.5x²
	want := []float64{3, -2, 0.5}
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = polyEval(want, x)
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	if !VecApproxEqual(got, want, 1e-8) {
		t.Errorf("PolyFit = %v, want %v", got, want)
	}
}

func TestPolyFitOverdeterminedNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := []float64{1, 2}
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, polyEval(truth, x)+rng.NormFloat64()*0.01)
	}
	got, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	if !VecApproxEqual(got, truth, 1e-2) {
		t.Errorf("PolyFit noisy = %v, want ≈%v", got, truth)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("underdetermined system accepted")
	}
}

func TestPolyEval(t *testing.T) {
	// 2 + 3x + x² at x=2 → 2+6+4 = 12
	if got := polyEval([]float64{2, 3, 1}, 2); got != 12 {
		t.Errorf("polyEval = %v, want 12", got)
	}
	if got := polyEval(nil, 5); got != 0 {
		t.Errorf("polyEval(nil) = %v, want 0", got)
	}
}

func TestSolveLinearIdentity(t *testing.T) {
	aug := [][]float64{
		{1, 0, 0, 4},
		{0, 1, 0, 5},
		{0, 0, 1, 6},
	}
	x, err := SolveLinear(aug)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !VecApproxEqual(x, []float64{4, 5, 6}, 1e-12) {
		t.Errorf("SolveLinear = %v", x)
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// First pivot is zero; partial pivoting must rescue it.
	aug := [][]float64{
		{0, 1, 2},
		{1, 0, 3},
	}
	x, err := SolveLinear(aug)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !VecApproxEqual(x, []float64{3, 2}, 1e-12) {
		t.Errorf("SolveLinear = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	aug := [][]float64{
		{1, 2, 3},
		{2, 4, 6},
	}
	if _, err := SolveLinear(aug); err == nil {
		t.Error("singular system accepted")
	}
}

func TestSolveLinearBadShape(t *testing.T) {
	if _, err := SolveLinear([][]float64{{1, 2}, {1, 2}}); err == nil {
		t.Error("bad row length accepted")
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if got := RSquared(obs, obs); !ApproxEqual(got, 1, 1e-12) {
		t.Errorf("RSquared(perfect) = %v, want 1", got)
	}
	if got := RSquared(obs, []float64{2.5, 2.5, 2.5, 2.5}); !ApproxEqual(got, 0, 1e-12) {
		t.Errorf("RSquared(mean) = %v, want 0", got)
	}
	if got := RSquared([]float64{1, 1}, []float64{1, 1}); !math.IsNaN(got) {
		t.Errorf("RSquared(zero variance) = %v, want NaN", got)
	}
	if got := RSquared([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("RSquared(mismatch) = %v, want NaN", got)
	}
}

// Property: fitting points generated from a random cubic recovers it.
func TestPolyFitRecoversRandomCubic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		truth := []float64{
			rng.NormFloat64(), rng.NormFloat64(),
			rng.NormFloat64(), rng.NormFloat64(),
		}
		xs := make([]float64, 12)
		ys := make([]float64, 12)
		for i := range xs {
			xs[i] = float64(i) - 6
			ys[i] = polyEval(truth, xs[i])
		}
		got, err := PolyFit(xs, ys, 3)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !VecApproxEqual(got, truth, 1e-6) {
			t.Errorf("trial %d: PolyFit = %v, want %v", trial, got, truth)
		}
	}
}
