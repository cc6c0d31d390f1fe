// Package optimize is a self-contained convex/heuristic optimization toolkit
// built only on the standard library. It stands in for the "common convex
// tools" (Matlab CVX) the QuHE paper relies on:
//
//   - MinimizeBarrier: log-barrier damped-Newton interior-point method for
//     smooth convex programs with inequality constraints (Stages 1 and 3).
//   - GradientDescent, Anneal, RandomSearch: the Stage-1 baselines from the
//     paper (§VI-B), over a Box.
//
// Stage 2's discrete λ choice is solved by its own branch and bound
// (Algorithm 2), qnet.Stage2.Maximize.
//
// Problems are expressed as plain closures over []float64. The two kinds of
// solver get their derivatives differently. The barrier is second order and
// takes exact ones: its objective and constraints are Smooth values that
// write their own gradient and Hessian into the barrier's workspace. The
// gradient-descent baseline takes a bare Func and estimates its gradient by
// central differences (Gradient), as the paper's baselines do; that is
// accurate and cheap at the dimensions this repository works at (≤ ~30
// variables).
package optimize

import "math"

// Func is a scalar-valued objective or constraint function. Implementations
// may return +Inf to signal an infeasible or undefined point.
type Func func(x []float64) float64

// derivStep returns the central-difference step for coordinate value v.
func derivStep(v float64) float64 {
	// cbrt(machine eps) scaling balances truncation vs rounding error.
	const base = 6.055454452393343e-06 // cbrt(2^-52)
	return base * math.Max(1, math.Abs(v))
}

// Gradient estimates ∇f(x) by central differences. x is not modified.
func Gradient(f Func, x []float64) []float64 {
	g := make([]float64, len(x))
	xx := make([]float64, len(x))
	copy(xx, x)
	for i := range x {
		h := derivStep(x[i])
		xx[i] = x[i] + h
		fp := f(xx)
		xx[i] = x[i] - h
		fm := f(xx)
		xx[i] = x[i]
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}
