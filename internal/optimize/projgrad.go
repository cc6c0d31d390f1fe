package optimize

import (
	"errors"
	"fmt"

	"quhe/internal/mathutil"
)

// Box describes per-coordinate bounds Lo[i] ≤ x[i] ≤ Hi[i].
type Box struct {
	Lo, Hi []float64
}

// Validate checks that the box is well formed for dimension n.
func (b Box) Validate(n int) error {
	if len(b.Lo) != n || len(b.Hi) != n {
		return fmt.Errorf("optimize: box dimension %d/%d, want %d: %w",
			len(b.Lo), len(b.Hi), n, mathutil.ErrDimensionMismatch)
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("optimize: box bound %d inverted: [%g, %g]", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// Project clamps x into the box in place.
func (b Box) Project(x []float64) {
	mathutil.ClampVecInPlace(x, b.Lo, b.Hi)
}

// PGOptions configures MinimizeProjGrad.
type PGOptions struct {
	// MaxIter bounds the number of projected-gradient steps. Default 500.
	MaxIter int
	// Tol stops when the projected step moves x by less than Tol in
	// infinity norm. Default 1e-9.
	Tol float64
}

func (o PGOptions) defaults() PGOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// PGResult reports the outcome of MinimizeProjGrad.
type PGResult struct {
	X         []float64
	Value     float64
	Iters     int
	Converged bool
	Values    []float64 // objective after each iteration
}

// MinimizeProjGrad minimizes f over the box by projected gradient descent
// with backtracking. For convex f over a box this converges to the global
// minimizer; it serves both as a solver in its own right and as the ablation
// comparator for the barrier method.
func MinimizeProjGrad(f Func, box Box, x0 []float64, opts PGOptions) (PGResult, error) {
	o := opts.defaults()
	var res PGResult
	if err := box.Validate(len(x0)); err != nil {
		return res, err
	}
	x := mathutil.Clone(x0)
	box.Project(x)
	fx := f(x)
	trial := make([]float64, len(x))
	step := 1.0
	for iter := 0; iter < o.MaxIter; iter++ {
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
				moved = mathutil.NormInf(mathutil.Sub(trial, x))
				copy(x, trial)
				fx = ft
				break
			}
		}
		res.Values = append(res.Values, fx)
		if moved < o.Tol {
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
