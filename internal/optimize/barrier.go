package optimize

import (
	"errors"
	"fmt"
	"math"

	"quhe/internal/mathutil"
)

// Smooth is a twice-differentiable function with its exact derivatives:
// the objective of MinimizeBarrier or one of its constraints F(x) ≤ 0.
// The derivatives write into storage the barrier owns, so a Newton step
// allocates nothing: Grad overwrites every entry of g with ∇F(x), and Hess
// adds w·∇²F(x) into h. Grad is required. A nil Hess means F is affine, so
// its Hessian is zero and the barrier adds none.
type Smooth struct {
	F    Func
	Grad func(x, g []float64)
	Hess func(x []float64, w float64, h [][]float64)
}

// LinearIneq builds the affine constraint a·x + b ≤ 0.
func LinearIneq(a []float64, b float64) Smooth {
	coeff := mathutil.Clone(a)
	return Smooth{
		F:    func(x []float64) float64 { return mathutil.Dot(coeff, x) + b },
		Grad: func(_, g []float64) { copy(g, coeff) },
	}
}

// BoundIneq builds the single-coordinate constraint sign·x[i] + b ≤ 0.
// With sign=+1 it expresses x[i] ≤ −b; with sign=−1 it expresses x[i] ≥ b.
func BoundIneq(i int, sign, b float64) Smooth {
	return Smooth{
		F: func(x []float64) float64 { return sign*x[i] + b },
		Grad: func(_, g []float64) {
			clear(g)
			g[i] = sign
		},
	}
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
// newtonTol, and maxNewton and maxOuter bound the two loops. A Newton
// system that will not factor is retried with each newtonRidges entry, in
// order, added to its diagonal in proportion to 1 + |H_ii|.
const (
	barrierMu = 20
	newtonTol = 1e-9
	maxNewton = 60
	maxOuter  = 60
)

var newtonRidges = [...]float64{0, 1e-10, 1e-6, 1e-2, 1}

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
// feasible: ineqs[i].F(x0) < 0 for all i. The call allocates its workspace
// once; its Newton steps and line searches allocate nothing beyond what
// the Smooth closures do.
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
	w := barrierWork{
		f0: f0, ineqs: ineqs,
		g: make([]float64, n), gc: make([]float64, n),
		dir: make([]float64, n), trial: make([]float64, n),
		hess: mathutil.Square(n), chol: mathutil.Square(n),
	}
	x := mathutil.Clone(x0)

	for outer := 0; outer < maxOuter; outer++ {
		res.OuterIters++
		for iter := 0; iter < maxNewton; iter++ {
			w.derivatives(x, t)
			if !mathutil.AllFinite(w.g) {
				return res, fmt.Errorf("optimize: outer %d: non-finite barrier gradient", outer)
			}
			if !w.solveNewton() {
				for i, gi := range w.g {
					w.dir[i] = -gi
				}
			}
			// Newton decrement: λ² = −gᵀd; stop when the quadratic model
			// predicts negligible improvement.
			decrement := -mathutil.Dot(w.g, w.dir) / 2
			fx := w.value(t, x)
			if decrement < newtonTol && mathutil.Norm2(w.g) < 1e-4*(1+math.Abs(fx)) {
				break
			}
			step := w.backtrack(t, x, fx)
			if step == 0 {
				break
			}
			mathutil.AXPYInPlace(step, w.dir, x)
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

// barrierWork is one MinimizeBarrier call's workspace: the barrier's
// gradient g and Hessian hess, a constraint's gradient gc, the Cholesky
// factor chol of the Newton system, the Newton direction dir and the line
// search's trial point.
type barrierWork struct {
	f0                Smooth
	ineqs             []Smooth
	g, gc, dir, trial []float64
	hess, chol        [][]float64
}

// value evaluates t·f0 + φ, φ(x) = Σ −log(−fi(x)); +Inf off-domain.
func (w *barrierWork) value(t float64, x []float64) float64 {
	v := t * w.f0.F(x)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	for _, c := range w.ineqs {
		ci := c.F(x)
		if ci >= 0 {
			return math.Inf(1)
		}
		v -= math.Log(-ci)
	}
	return v
}

// derivatives writes into g and hess the gradient and Hessian of
// t·f0 + Σ −log(−fi) at a strictly feasible x:
//
//	∇  = t∇f0 + Σ ∇fi/(−fi)
//	∇² = t∇²f0 + Σ [ ∇fi∇fiᵀ/fi² + ∇²fi/(−fi) ]
func (w *barrierWork) derivatives(x []float64, t float64) {
	g, hess := w.g, w.hess
	w.f0.Grad(x, g)
	for i := range g {
		g[i] *= t
	}
	for _, row := range hess {
		clear(row)
	}
	if w.f0.Hess != nil {
		w.f0.Hess(x, t, hess)
	}
	for _, c := range w.ineqs {
		inv := 1 / -c.F(x)
		c.Grad(x, w.gc)
		for i, gci := range w.gc {
			g[i] += gci * inv
			row := hess[i]
			for j, gcj := range w.gc {
				row[j] += gci * gcj * inv * inv
			}
		}
		if c.Hess != nil {
			c.Hess(x, inv, hess)
		}
	}
}

// solveNewton solves hess·dir = −g by Cholesky, adding the next ridge of
// newtonRidges to the diagonal whenever the system does not factor or its
// solution is not a descent direction. It reports whether one was found.
func (w *barrierWork) solveNewton() bool {
	for _, ridge := range newtonRidges {
		if !w.factor(ridge) {
			continue
		}
		w.substitute()
		if mathutil.AllFinite(w.dir) && mathutil.Dot(w.dir, w.g) < 0 {
			return true
		}
	}
	return false
}

// factor writes into chol the lower Cholesky factor L of
// hess + ridge·diag(1 + |hess_ii|), reading hess's lower triangle. It
// reports false when the matrix is not numerically positive definite.
func (w *barrierWork) factor(ridge float64) bool {
	a, l := w.hess, w.chol
	for i := range a {
		for j := 0; j <= i; j++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			if i != j {
				l[i][j] = s / l[j][j]
				continue
			}
			s += ridge * (1 + math.Abs(a[i][i]))
			if !(s > 0) {
				return false
			}
			l[i][i] = math.Sqrt(s)
		}
	}
	return true
}

// substitute solves L·Lᵀ·dir = −g with the factor in chol: forward
// substitution for L·y = −g, then back substitution for Lᵀ·dir = y, both
// in dir.
func (w *barrierWork) substitute() {
	l, d := w.chol, w.dir
	for i := range d {
		s := -w.g[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * d[k]
		}
		d[i] = s / l[i][i]
	}
	for i := len(d) - 1; i >= 0; i-- {
		s := d[i]
		for k := i + 1; k < len(d); k++ {
			s -= l[k][i] * d[k]
		}
		d[i] = s / l[i][i]
	}
}

// backtrack is an Armijo backtracking line search along dir from x, where
// the barrier at weight t takes the value fx: it returns the first step
// s = 1, 1/2, 1/4, … whose trial point x + s·dir satisfies
// value ≤ fx + 1e-4·s·⟨g, dir⟩, which value's +Inf off the domain makes
// strictly feasible, or 0 once s underflows.
func (w *barrierWork) backtrack(t float64, x []float64, fx float64) float64 {
	const c1, beta = 1e-4, 0.5
	slope := mathutil.Dot(w.g, w.dir)
	for s := 1.0; s > 1e-16; s *= beta {
		for i := range x {
			w.trial[i] = x[i] + s*w.dir[i]
		}
		if w.value(t, w.trial) <= fx+c1*s*slope {
			return s
		}
	}
	return 0
}
