package optimize

import (
	"math"
	"testing"

	"quhe/internal/mathutil"
)

// Hessian estimates ∇²f(x) by central second differences. The result is
// symmetrized. x is not modified.
func Hessian(f Func, x []float64) [][]float64 {
	n := len(x)
	h := make([]float64, n)
	for i := range x {
		// Slightly larger step for second derivatives (eps^(1/4) scaling).
		h[i] = 1.2207e-4 * math.Max(1, math.Abs(x[i]))
	}
	xx := make([]float64, n)
	copy(xx, x)
	f0 := f(xx)
	hess := make([][]float64, n)
	for i := range hess {
		hess[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		// Diagonal: (f(x+h) - 2f(x) + f(x-h)) / h².
		xx[i] = x[i] + h[i]
		fp := f(xx)
		xx[i] = x[i] - h[i]
		fm := f(xx)
		xx[i] = x[i]
		hess[i][i] = (fp - 2*f0 + fm) / (h[i] * h[i])
		for j := i + 1; j < n; j++ {
			// Off-diagonal: four-point formula.
			xx[i], xx[j] = x[i]+h[i], x[j]+h[j]
			fpp := f(xx)
			xx[i], xx[j] = x[i]+h[i], x[j]-h[j]
			fpm := f(xx)
			xx[i], xx[j] = x[i]-h[i], x[j]+h[j]
			fmp := f(xx)
			xx[i], xx[j] = x[i]-h[i], x[j]-h[j]
			fmm := f(xx)
			xx[i], xx[j] = x[i], x[j]
			v := (fpp - fpm - fmp + fmm) / (4 * h[i] * h[j])
			hess[i][j] = v
			hess[j][i] = v
		}
	}
	return hess
}

func quadratic(x []float64) float64 {
	// f(x,y) = (x-2)² + 3(y+1)² + xy
	return (x[0]-2)*(x[0]-2) + 3*(x[1]+1)*(x[1]+1) + x[0]*x[1]
}

func TestGradientQuadratic(t *testing.T) {
	x := []float64{1.5, -0.5}
	g := Gradient(quadratic, x)
	// ∂f/∂x = 2(x-2) + y, ∂f/∂y = 6(y+1) + x
	want := []float64{2*(x[0]-2) + x[1], 6*(x[1]+1) + x[0]}
	if !mathutil.VecApproxEqual(g, want, 1e-6) {
		t.Errorf("Gradient = %v, want %v", g, want)
	}
}

func TestGradientDoesNotMutate(t *testing.T) {
	x := []float64{1, 2}
	Gradient(quadratic, x)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("Gradient mutated x: %v", x)
	}
}

func TestHessianQuadratic(t *testing.T) {
	h := Hessian(quadratic, []float64{0.3, 0.7})
	want := [][]float64{{2, 1}, {1, 6}}
	for i := range want {
		if !mathutil.VecApproxEqual(h[i], want[i], 1e-3) {
			t.Errorf("Hessian row %d = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestGradientNonPolynomial(t *testing.T) {
	f := func(x []float64) float64 { return math.Exp(x[0]) * math.Sin(x[1]) }
	x := []float64{0.5, 1.2}
	g := Gradient(f, x)
	want := []float64{math.Exp(0.5) * math.Sin(1.2), math.Exp(0.5) * math.Cos(1.2)}
	if !mathutil.VecApproxEqual(g, want, 1e-7) {
		t.Errorf("Gradient = %v, want %v", g, want)
	}
}

func TestHessianSymmetry(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Exp(x[0]*x[1]) + x[2]*x[2]*x[0]
	}
	h := Hessian(f, []float64{0.3, -0.2, 0.9})
	for i := range h {
		for j := range h {
			if h[i][j] != h[j][i] {
				t.Errorf("Hessian not symmetric at (%d,%d): %v vs %v", i, j, h[i][j], h[j][i])
			}
		}
	}
}
