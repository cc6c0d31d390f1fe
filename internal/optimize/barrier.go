package optimize

import (
	"errors"
	"fmt"
	"math"

	"quhe/internal/mathutil"
)

// Smooth is a twice-differentiable function with its exact derivatives:
// the objective of MinimizeBarrier or one of its constraints F(x) ≤ 0.
// Grad is required. A nil Hess means F is affine, so its Hessian is zero
// and the barrier adds none.
type Smooth struct {
	F    Func
	Grad func(x []float64) []float64
	Hess func(x []float64) [][]float64
}

// LinearIneq builds the affine constraint a·x + b ≤ 0.
func LinearIneq(a []float64, b float64) Smooth {
	coeff := mathutil.Clone(a)
	return Smooth{
		F:    func(x []float64) float64 { return mathutil.Dot(coeff, x) + b },
		Grad: func([]float64) []float64 { return coeff },
	}
}

// BoundIneq builds the single-coordinate constraint sign·x[i] + b ≤ 0.
// With sign=+1 it expresses x[i] ≤ −b; with sign=−1 it expresses x[i] ≥ b.
func BoundIneq(n, i int, sign, b float64) Smooth {
	a := make([]float64, n)
	a[i] = sign
	return LinearIneq(a, b)
}

// BarrierOptions configures the log-barrier interior-point method. The
// zero value starts at t = 1 and stops at a duality gap of 1e-6.
type BarrierOptions struct {
	// T0 is the initial barrier weight t. Default 1.
	T0 float64
	// Tol is the target duality gap m/t at which the method stops.
	// Default 1e-6.
	Tol float64
}

// The barrier's fixed settings: t grows by barrierMu between centering
// steps, a centering step ends when the Newton decrement falls below
// newtonTol, and maxNewton and maxOuter bound the two loops.
const (
	barrierMu = 20
	newtonTol = 1e-9
	maxNewton = 60
	maxOuter  = 60
)

// BarrierResult reports the outcome of MinimizeBarrier.
type BarrierResult struct {
	// X is the best point found.
	X []float64
	// Value is f0(X).
	Value float64
	// Converged is true when the duality gap dropped below Tol.
	Converged bool
	// OuterIters and NewtonIters count centering steps and total inner
	// Newton iterations.
	OuterIters  int
	NewtonIters int
	// Values records f0 after every inner Newton iteration (the "POBJ"
	// trace of Fig. 4(c)).
	Values []float64
	// Gaps records the duality gap m/t after every centering step
	// (Fig. 4(d)).
	Gaps []float64
}

// ErrInfeasibleStart is returned when x0 violates a constraint.
var ErrInfeasibleStart = errors.New("optimize: start point is not strictly feasible")

// MinimizeBarrier minimizes the smooth convex objective f0 subject to
// ineqs[i].F(x) ≤ 0 using the classical log-barrier method with a damped
// Newton inner loop (Boyd & Vandenberghe, ch. 11). x0 must be strictly
// feasible: ineqs[i].F(x0) < 0 for all i.
//
// This routine is the repository's substitute for the CVX interior-point
// solver the paper uses; for the smooth convex programs of Stages 1 and 3 it
// converges to the same KKT points.
func MinimizeBarrier(f0 Smooth, ineqs []Smooth, x0 []float64, opts BarrierOptions) (BarrierResult, error) {
	var res BarrierResult
	if len(x0) == 0 {
		return res, errors.New("optimize: empty start point")
	}
	for i, c := range ineqs {
		if v := c.F(x0); !(v < 0) {
			return res, fmt.Errorf("%w: constraint %d = %g", ErrInfeasibleStart, i, v)
		}
	}
	t, tol := opts.T0, opts.Tol
	if t <= 0 {
		t = 1
	}
	if tol <= 0 {
		tol = 1e-6
	}

	n := len(x0)
	m := float64(len(ineqs))
	x := mathutil.Clone(x0)

	strictlyFeasible := func(p []float64) bool {
		for _, c := range ineqs {
			if !(c.F(p) < 0) {
				return false
			}
		}
		return true
	}
	// ftVal evaluates t·f0 + φ, φ(x) = Σ −log(−fi(x)); +Inf off-domain.
	ftVal := func(tt float64, p []float64) float64 {
		v := tt * f0.F(p)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		for _, c := range ineqs {
			ci := c.F(p)
			if ci >= 0 {
				return math.Inf(1)
			}
			v -= math.Log(-ci)
		}
		return v
	}

	for outer := 0; outer < maxOuter; outer++ {
		res.OuterIters++
		for iter := 0; iter < maxNewton; iter++ {
			g, hess := barrierDerivatives(f0, ineqs, x, t)
			if !mathutil.AllFinite(g) {
				return res, fmt.Errorf("optimize: outer %d: non-finite barrier gradient", outer)
			}
			dir, ok := solveNewton(hess, g, n)
			if !ok {
				dir = mathutil.Scale(-1, g)
			}
			// Newton decrement: λ² = −gᵀd; stop when the quadratic model
			// predicts negligible improvement.
			decrement := -mathutil.Dot(g, dir) / 2
			if decrement < newtonTol && mathutil.Norm2(g) < 1e-4*(1+math.Abs(ftVal(t, x))) {
				break
			}
			fx := ftVal(t, x)
			ftFunc := func(p []float64) float64 { return ftVal(t, p) }
			step := backtrack(ftFunc, x, dir, g, fx, 1, 1e-4, 0.5, strictlyFeasible)
			if step == 0 {
				break
			}
			mathutil.AXPYInPlace(step, dir, x)
			res.NewtonIters++
			res.Values = append(res.Values, f0.F(x))
		}
		gap := m / t
		res.Gaps = append(res.Gaps, gap)
		if gap < tol {
			res.Converged = true
			break
		}
		t *= barrierMu
	}
	res.X = x
	res.Value = f0.F(x)
	return res, nil
}

// barrierDerivatives assembles the gradient and Hessian of
// t·f0 + Σ −log(−fi) at a strictly feasible x:
//
//	∇  = t∇f0 + Σ ∇fi/(−fi)
//	∇² = t∇²f0 + Σ [ ∇fi∇fiᵀ/fi² + ∇²fi/(−fi) ]
func barrierDerivatives(f0 Smooth, ineqs []Smooth, x []float64, t float64) ([]float64, [][]float64) {
	g := mathutil.Scale(t, f0.Grad(x))
	hess := mathutil.Square(len(x))
	addHess(hess, f0, x, t)
	for _, c := range ineqs {
		inv := 1 / -c.F(x)
		gc := c.Grad(x)
		for i, gci := range gc {
			g[i] += gci * inv
			row := hess[i]
			for j, gcj := range gc {
				row[j] += gci * gcj * inv * inv
			}
		}
		addHess(hess, c, x, inv)
	}
	return g, hess
}

// addHess adds w·∇²f(x) to hess; an affine f adds nothing.
func addHess(hess [][]float64, f Smooth, x []float64, w float64) {
	if f.Hess == nil {
		return
	}
	for i, row := range f.Hess(x) {
		for j, v := range row {
			hess[i][j] += w * v
		}
	}
}

// solveNewton solves H d = −g with growing ridge regularization and reports
// whether a descent direction was obtained.
func solveNewton(hess [][]float64, g []float64, n int) ([]float64, bool) {
	for _, ridge := range []float64{0, 1e-10, 1e-6, 1e-2, 1} {
		aug := make([][]float64, n)
		for i := range aug {
			aug[i] = make([]float64, n+1)
			copy(aug[i], hess[i])
			aug[i][i] += ridge * (1 + math.Abs(hess[i][i]))
			aug[i][n] = -g[i]
		}
		d, err := mathutil.SolveLinear(aug)
		if err != nil || !mathutil.AllFinite(d) {
			continue
		}
		if mathutil.Dot(d, g) < 0 {
			return d, true
		}
	}
	return nil, false
}
