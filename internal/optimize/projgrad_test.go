package optimize

import (
	"errors"
	"math"
	"testing"

	"quhe/internal/mathutil"
)

// PGOptions configures MinimizeProjGrad.
type PGOptions struct {
	// MaxIter bounds the number of projected-gradient steps. Default 500.
	MaxIter int
	// Tol stops when the projected step moves x by less than Tol in
	// infinity norm. Default 1e-9.
	Tol float64
}

// PGResult reports the outcome of MinimizeProjGrad.
type PGResult struct {
	X         []float64
	Value     float64
	Iters     int
	Converged bool
}

// MinimizeProjGrad minimizes f over the box by projected gradient descent
// with backtracking on central-difference gradients. For convex f over a
// box it converges to the global minimizer: the tests' reference for the
// barrier method on box-constrained problems, and the line-search method
// the fixed-step GD baseline is measured against.
func MinimizeProjGrad(f Func, box Box, x0 []float64, opts PGOptions) (PGResult, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 500
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	var res PGResult
	if err := box.Validate(len(x0)); err != nil {
		return res, err
	}
	x := mathutil.Clone(x0)
	box.Project(x)
	fx := f(x)
	trial := make([]float64, len(x))
	step := 1.0
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters++
		g := Gradient(f, x)
		if !mathutil.AllFinite(g) {
			return res, errors.New("optimize: non-finite gradient in projected gradient descent")
		}
		// Backtrack on the projected step until sufficient decrease.
		t := step
		moved := 0.0
		for ; t > 1e-18; t *= 0.5 {
			for i := range x {
				trial[i] = mathutil.Clamp(x[i]-t*g[i], box.Lo[i], box.Hi[i])
			}
			ft := f(trial)
			if ft < fx {
				for i := range x {
					moved = math.Max(moved, math.Abs(trial[i]-x[i]))
				}
				copy(x, trial)
				fx = ft
				break
			}
		}
		if moved < opts.Tol {
			res.Converged = true
			break
		}
		// Allow the step to grow back so progress is not permanently slow.
		step = mathutil.Clamp(t*4, 1e-12, 1e6)
	}
	res.X = x
	res.Value = fx
	return res, nil
}

func TestProjGradInterior(t *testing.T) {
	res, err := MinimizeProjGrad(bowl, unitBox2(), []float64{4, 4}, PGOptions{})
	if err != nil {
		t.Fatalf("MinimizeProjGrad: %v", err)
	}
	if !mathutil.VecApproxEqual(res.X, []float64{1, -2}, 1e-4) {
		t.Errorf("X = %v, want [1 -2]", res.X)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
}

func TestProjGradBindingBox(t *testing.T) {
	// Optimum (1,-2) is outside the box [0,0.5]² → solution clamps.
	box := Box{Lo: []float64{0, 0}, Hi: []float64{0.5, 0.5}}
	res, err := MinimizeProjGrad(bowl, box, []float64{0.2, 0.2}, PGOptions{})
	if err != nil {
		t.Fatalf("MinimizeProjGrad: %v", err)
	}
	if !mathutil.VecApproxEqual(res.X, []float64{0.5, 0}, 1e-5) {
		t.Errorf("X = %v, want [0.5 0]", res.X)
	}
}

func TestProjGradBadBox(t *testing.T) {
	box := Box{Lo: []float64{1}, Hi: []float64{0}}
	if _, err := MinimizeProjGrad(bowl, box, []float64{0}, PGOptions{}); err == nil {
		t.Error("inverted box accepted")
	}
}

func TestGradientDescentSlowerThanBarrierStyleMethods(t *testing.T) {
	// GD at fixed lr needs many more iterations than projected gradient
	// with line search — the effect behind Fig. 5(b).
	gd, err := GradientDescent(bowl, unitBox2(), []float64{4, 4}, GDOptions{LearningRate: 0.001})
	if err != nil {
		t.Fatalf("GradientDescent: %v", err)
	}
	pg, err := MinimizeProjGrad(bowl, unitBox2(), []float64{4, 4}, PGOptions{})
	if err != nil {
		t.Fatalf("MinimizeProjGrad: %v", err)
	}
	if gd.Iters <= pg.Iters {
		t.Errorf("expected GD (%d iters) to need more iterations than projected gradient (%d)", gd.Iters, pg.Iters)
	}
}
