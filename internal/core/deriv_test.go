package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quhe/internal/costmodel"
	"quhe/internal/mathutil"
	"quhe/internal/optimize"
)

// jacobianFD is the central-difference Jacobian of grad at x: the oracle
// for an exact Hessian, given that grad itself matches F.
func jacobianFD(grad func([]float64) []float64, x []float64) [][]float64 {
	h := mathutil.Square(len(x))
	xx := append([]float64(nil), x...)
	for j := range x {
		step := 6.055454452393343e-06 * math.Max(1, math.Abs(x[j])) // cbrt(2^-52)
		xx[j] = x[j] + step
		gp := grad(xx)
		xx[j] = x[j] - step
		gm := grad(xx)
		xx[j] = x[j]
		for i := range h {
			h[i][j] = (gp[i] - gm[i]) / (2 * step)
		}
	}
	return h
}

// relErr is the largest entry of |got − want| relative to the largest
// entry of either matrix. Scaling per row would blow up on the all-zero
// rows of a block-sparse Hessian.
func relErr(got, want [][]float64) float64 {
	worst, scale := 0.0, 0.0
	for i := range want {
		for j := range want[i] {
			worst = math.Max(worst, math.Abs(got[i][j]-want[i][j]))
			scale = math.Max(scale, math.Max(math.Abs(got[i][j]), math.Abs(want[i][j])))
		}
	}
	if scale == 0 {
		return 0
	}
	return worst / scale
}

// derivErrs checks f's exact gradient against finite differences of F and
// its exact Hessian (zero when Hess is nil) against finite differences of
// the exact gradient, returning both errors.
func derivErrs(f optimize.Smooth, x []float64) (gradErr, hessErr float64) {
	grad := func(x []float64) []float64 {
		g := make([]float64, len(x))
		f.Grad(x, g)
		return g
	}
	gradErr = relErr([][]float64{grad(x)}, [][]float64{optimize.Gradient(f.F, x)})
	// Hess adds w·∇²F: add half of it to a matrix of ones and read it back.
	exact := mathutil.Square(len(x))
	for _, row := range exact {
		for j := range row {
			row[j] = 1
		}
	}
	if f.Hess != nil {
		f.Hess(x, 0.5, exact)
	}
	for _, row := range exact {
		for j := range row {
			row[j] = (row[j] - 1) / 0.5
		}
	}
	return gradErr, relErr(exact, jacobianFD(grad, x))
}

// TestExactDerivativesMatchFiniteDifferences holds every derivative the
// Stage-3 barrier takes to finite differences at random interior points:
// the P6 objective (Eq. 28) at random z and every Stage 3 constraint.
// Stage 1's P3 is stated in internal/qnet and checked there
// (TestStage1DerivativesMatchFiniteDifferences).
func TestExactDerivativesMatchFiniteDifferences(t *testing.T) {
	const (
		gradTol = 1e-6
		hessTol = 1e-6
		points  = 20
	)
	rng := rand.New(rand.NewSource(33))
	var worstGrad, worstHess float64
	check := func(what string, f optimize.Smooth, x []float64) {
		t.Helper()
		ge, he := derivErrs(f, x)
		if ge > gradTol {
			t.Errorf("%s: gradient error %.2e > %.0e", what, ge, gradTol)
		}
		if he > hessTol {
			t.Errorf("%s: Hessian error %.2e > %.0e", what, he, hessTol)
		}
		worstGrad, worstHess = math.Max(worstGrad, ge), math.Max(worstHess, he)
	}

	for _, seed := range []int64{1, 7} {
		c := PaperConfig(seed)
		n := c.N()

		// Stage 3 at λ = the smallest level, with a delay scale of the
		// order the solver picks.
		s3 := stage3Space{c: c, n: n, cycles: make([]float64, n), tScale: 1}
		for i := range s3.cycles {
			s3.cycles[i] = costmodel.TotalServerCycles(c.LambdaSet[0], c.DCmpTokens[i], c.TokensPerSample[i])
		}
		ineqs := s3.constraints()
		for k := 0; k < points; k++ {
			x := make([]float64, s3.dim())
			for i := 0; i < n; i++ {
				x[i] = 0.05 + 0.9*rng.Float64()
				x[n+i] = 0.05 + 1.4*rng.Float64()
				x[2*n+i] = 0.05 + 0.9*rng.Float64()
				x[3*n+i] = 0.05 + 1.4*rng.Float64()
			}
			x[4*n] = 0.5 + rng.Float64()
			z := make([]float64, n)
			p, b, _, _, _ := s3.unpack(x)
			for i := range z {
				z[i] = (0.5 + 1.5*rng.Float64()) / (2 * p[i] * c.DTrBits[i] * c.Rate(i, p[i], b[i]))
			}
			check(fmt.Sprintf("seed %d stage 3 objective, point %d", seed, k), s3.objective(z), x)
			for j, f := range ineqs {
				check(fmt.Sprintf("seed %d stage 3 constraint %d, point %d", seed, j, k), f, x)
			}
		}

	}
	t.Logf("worst relative error: gradients %.1e (bound %.0e), Hessians %.1e (bound %.0e)",
		worstGrad, gradTol, worstHess, hessTol)
}
