package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		x, y []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"ones", []float64{1, 1, 1}, []float64{1, 1, 1}, 3},
		{"mixed", []float64{1, -2, 3}, []float64{4, 5, -6}, 4 - 10 - 18},
		{"single", []float64{2.5}, []float64{4}, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.x, tt.y); got != tt.want {
				t.Errorf("Dot(%v, %v) = %v, want %v", tt.x, tt.y, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestAXPYInPlace(t *testing.T) {
	y := []float64{1, 1}
	AXPYInPlace(2, []float64{3, 4}, y)
	if !VecApproxEqual(y, []float64{7, 9}, 0) {
		t.Errorf("AXPYInPlace = %v, want [7 9]", y)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampVecInPlace(t *testing.T) {
	x := []float64{-5, 5, 50}
	ClampVecInPlace(x, []float64{0, 0, 0}, []float64{10, 10, 10})
	if !VecApproxEqual(x, []float64{0, 5, 10}, 0) {
		t.Errorf("ClampVecInPlace = %v", x)
	}
}

func TestFillSum(t *testing.T) {
	x := Fill(4, 2.5)
	if got := Sum(x); got != 10 {
		t.Errorf("Sum(Fill(4, 2.5)) = %v, want 10", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Error("AllFinite rejected finite vector")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite accepted NaN")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite accepted +Inf")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("ApproxEqual rejected near-identical values")
	}
	if ApproxEqual(1.0, 2.0, 1e-9) {
		t.Error("ApproxEqual accepted distant values")
	}
	if ApproxEqual(math.NaN(), math.NaN(), 1) {
		t.Error("ApproxEqual accepted NaN")
	}
	// Relative comparison for large magnitudes.
	if !ApproxEqual(1e12, 1e12+1, 1e-9) {
		t.Error("ApproxEqual rejected relative-equal large values")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if got := Clone(nil); got == nil || len(got) != 0 {
		t.Errorf("Clone(nil) = %v, want empty non-nil", got)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotPropertySymmetric(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		x, y := raw[:half], raw[half:2*half]
		for _, v := range raw {
			// Skip values whose products overflow to ±Inf.
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
		}
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Norm2(a·x) == |a|·Norm2(x) within floating error.
func TestNormScaleProperty(t *testing.T) {
	f := func(x []float64, a float64) bool {
		if !AllFinite(x) || math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		for _, v := range x {
			if math.Abs(v) > 1e6 {
				return true
			}
		}
		ax := make([]float64, len(x))
		for i, v := range x {
			ax[i] = a * v
		}
		lhs := Norm2(ax)
		rhs := math.Abs(a) * Norm2(x)
		return ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
