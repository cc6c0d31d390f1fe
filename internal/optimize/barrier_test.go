package optimize

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"quhe/internal/mathutil"
)

// fdSmooth wraps a bare function as a Smooth whose derivatives are the
// finite-difference oracles Gradient and Hessian, so the barrier tests can
// state their problems as closures.
func fdSmooth(f Func) Smooth {
	return Smooth{
		F:    f,
		Grad: func(x, g []float64) { copy(g, Gradient(f, x)) },
		Hess: func(x []float64, w float64, h [][]float64) {
			for i, row := range Hessian(f, x) {
				mathutil.AXPYInPlace(w, row, h[i])
			}
		},
	}
}

// TestBarrierActiveConstraint solves
//
//	min (x−2)² + (y−3)²  s.t.  x+y ≤ 4, x ≥ 0, y ≥ 0
//
// whose optimum projects (2,3) onto the line x+y=4: (1.5, 2.5).
func TestBarrierActiveConstraint(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-2)*(x[0]-2) + (x[1]-3)*(x[1]-3)
	}
	ineqs := []Smooth{
		fdSmooth(func(x []float64) float64 { return x[0] + x[1] - 4 }),
		fdSmooth(func(x []float64) float64 { return -x[0] }),
		fdSmooth(func(x []float64) float64 { return -x[1] }),
	}
	res, err := MinimizeBarrier(fdSmooth(f), ineqs, []float64{0.5, 0.5}, BarrierOptions{})
	if err != nil {
		t.Fatalf("MinimizeBarrier: %v", err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	if !mathutil.VecApproxEqual(res.X, []float64{1.5, 2.5}, 1e-3) {
		t.Errorf("X = %v, want [1.5 2.5]", res.X)
	}
	if !mathutil.ApproxEqual(res.Value, 0.5, 1e-3) {
		t.Errorf("Value = %v, want 0.5", res.Value)
	}
}

// TestBarrierInteriorOptimum: unconstrained optimum already satisfies the
// constraints, so the barrier must find it exactly.
func TestBarrierInteriorOptimum(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 2*(x[1]-1)*(x[1]-1)
	}
	ineqs := []Smooth{fdSmooth(func(x []float64) float64 { return x[0] + x[1] - 100 })}
	res, err := MinimizeBarrier(fdSmooth(f), ineqs, []float64{5, 5}, BarrierOptions{})
	if err != nil {
		t.Fatalf("MinimizeBarrier: %v", err)
	}
	if !mathutil.VecApproxEqual(res.X, []float64{1, 1}, 1e-4) {
		t.Errorf("X = %v, want [1 1]", res.X)
	}
}

func TestBarrierInfeasibleStart(t *testing.T) {
	f := func(x []float64) float64 { return x[0] }
	ineqs := []Smooth{fdSmooth(func(x []float64) float64 { return x[0] - 1 })}
	_, err := MinimizeBarrier(fdSmooth(f), ineqs, []float64{2}, BarrierOptions{})
	if !errors.Is(err, ErrInfeasibleStart) {
		t.Errorf("err = %v, want ErrInfeasibleStart", err)
	}
}

func TestBarrierEmptyStart(t *testing.T) {
	if _, err := MinimizeBarrier(fdSmooth(func([]float64) float64 { return 0 }), nil, nil, BarrierOptions{}); err == nil {
		t.Error("empty start accepted")
	}
}

// TestBarrierGapDecreases: the duality gap trace m/t must be strictly
// decreasing — this is the property plotted in Fig. 4(d).
func TestBarrierGapDecreases(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	ineqs := []Smooth{
		fdSmooth(func(x []float64) float64 { return x[0] - 5 }),
		fdSmooth(func(x []float64) float64 { return -x[0] - 5 }),
	}
	res, err := MinimizeBarrier(fdSmooth(f), ineqs, []float64{1}, BarrierOptions{})
	if err != nil {
		t.Fatalf("MinimizeBarrier: %v", err)
	}
	if len(res.Gaps) < 2 {
		t.Fatalf("too few gap samples: %d", len(res.Gaps))
	}
	for i := 1; i < len(res.Gaps); i++ {
		if res.Gaps[i] >= res.Gaps[i-1] {
			t.Errorf("gap did not decrease at step %d: %v -> %v", i, res.Gaps[i-1], res.Gaps[i])
		}
	}
	if last := res.Gaps[len(res.Gaps)-1]; last > 1e-6 {
		t.Errorf("final gap %v > tolerance", last)
	}
}

// TestBarrierFeasibilityMaintained: every strictly feasible start must yield
// a feasible solution. Exercised on a random family of LP-like problems.
func TestBarrierFeasibilityMaintained(t *testing.T) {
	f := func(x []float64) float64 { return -x[0] - 2*x[1] } // maximize x+2y
	ineqs := []Smooth{
		LinearIneq([]float64{1, 1}, -3),
		BoundIneq(0, 1, -2),
		BoundIneq(1, 1, -2),
		BoundIneq(0, -1, 0),
		BoundIneq(1, -1, 0),
	}
	res, err := MinimizeBarrier(fdSmooth(f), ineqs, []float64{0.1, 0.1}, BarrierOptions{})
	if err != nil {
		t.Fatalf("MinimizeBarrier: %v", err)
	}
	for i, c := range ineqs {
		if v := c.F(res.X); v > 1e-6 {
			t.Errorf("constraint %d violated: %v", i, v)
		}
	}
	// LP optimum at vertex (1,2): value -5.
	if !mathutil.ApproxEqual(res.Value, -5, 1e-2) {
		t.Errorf("Value = %v, want -5", res.Value)
	}
}

// TestBarrierLogDomain exercises a Stage-1-like problem with logs:
// min −Σ ln(x_i) s.t. Σ x_i ≤ 1, which has solution x_i = 1/n.
func TestBarrierLogDomain(t *testing.T) {
	n := 4
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			if v <= 0 {
				return math.Inf(1)
			}
			s -= math.Log(v)
		}
		return s
	}
	ineqs := []Smooth{
		fdSmooth(func(x []float64) float64 { return mathutil.Sum(x) - 1 }),
	}
	for i := 0; i < n; i++ {
		ineqs = append(ineqs, BoundIneq(i, -1, 1e-9))
	}
	x0 := mathutil.Fill(n, 0.1)
	res, err := MinimizeBarrier(fdSmooth(f), ineqs, x0, BarrierOptions{})
	if err != nil {
		t.Fatalf("MinimizeBarrier: %v", err)
	}
	want := mathutil.Fill(n, 0.25)
	if !mathutil.VecApproxEqual(res.X, want, 1e-3) {
		t.Errorf("X = %v, want %v", res.X, want)
	}
}

// TestBarrierAgreesWithProjGradOnRandomQPs cross-checks the two convex
// solvers on random strongly convex quadratics over boxes: both must find
// the same minimizer.
func TestBarrierAgreesWithProjGradOnRandomQPs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		// Diagonal-dominant quadratic: f = Σ a_i (x_i − c_i)² + cross terms.
		a := make([]float64, n)
		c := make([]float64, n)
		for i := range a {
			a[i] = 0.5 + rng.Float64()*3
			c[i] = rng.NormFloat64() * 2
		}
		cross := rng.Float64() * 0.2
		f := func(x []float64) float64 {
			s := 0.0
			for i := range x {
				d := x[i] - c[i]
				s += a[i] * d * d
			}
			for i := 1; i < len(x); i++ {
				s += cross * (x[i] - c[i]) * (x[i-1] - c[i-1])
			}
			return s
		}
		lo, hi := mathutil.Fill(n, -1.5), mathutil.Fill(n, 1.5)
		box := Box{Lo: lo, Hi: hi}

		var ineqs []Smooth
		for i := 0; i < n; i++ {
			ineqs = append(ineqs,
				BoundIneq(i, 1, -1.5),  // x_i ≤ 1.5
				BoundIneq(i, -1, -1.5), // x_i ≥ −1.5
			)
		}
		x0 := make([]float64, n)
		bres, err := MinimizeBarrier(fdSmooth(f), ineqs, x0, BarrierOptions{})
		if err != nil {
			t.Fatalf("trial %d: barrier: %v", trial, err)
		}
		pres, err := MinimizeProjGrad(f, box, x0, PGOptions{MaxIter: 3000})
		if err != nil {
			t.Fatalf("trial %d: projgrad: %v", trial, err)
		}
		if !mathutil.ApproxEqual(bres.Value, pres.Value, 1e-4) {
			t.Errorf("trial %d: barrier %v vs projgrad %v", trial, bres.Value, pres.Value)
		}
	}
}

// TestBarrierAgreesWithAnnealOnSmoothProblem: on an easy convex problem the
// heuristic should land near the barrier optimum (sanity link between the
// exact and stochastic solver families).
func TestBarrierAgreesWithAnnealOnSmoothProblem(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-0.4)*(x[0]-0.4) + 2*(x[1]+0.3)*(x[1]+0.3)
	}
	ineqs := []Smooth{
		BoundIneq(0, 1, -2), BoundIneq(0, -1, -2),
		BoundIneq(1, 1, -2), BoundIneq(1, -1, -2),
	}
	bres, err := MinimizeBarrier(fdSmooth(f), ineqs, []float64{0, 0}, BarrierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	box := Box{Lo: []float64{-2, -2}, Hi: []float64{2, 2}}
	ares, err := Anneal(f, box, []float64{1.5, 1.5}, SAOptions{Iters: 30000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Value < bres.Value-1e-9 {
		t.Errorf("SA (%v) beat the barrier (%v) on a convex problem", ares.Value, bres.Value)
	}
	if ares.Value > bres.Value+0.01 {
		t.Errorf("SA (%v) far from barrier optimum (%v)", ares.Value, bres.Value)
	}
}
