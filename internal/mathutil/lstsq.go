package mathutil

import (
	"fmt"
	"math"
)

// PolyFit fits a polynomial of the given degree to the points (xs[i], ys[i])
// by ordinary least squares and returns the coefficients in ascending order:
// coeffs[k] multiplies x^k. It solves the normal equations with Gaussian
// elimination, which is adequate for the low degrees (≤3) used in this
// repository's cost-model fitting.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("polyfit: %w: %d xs vs %d ys", ErrDimensionMismatch, len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("polyfit: negative degree %d", degree)
	}
	if len(xs) < degree+1 {
		return nil, fmt.Errorf("polyfit: need at least %d points for degree %d, got %d", degree+1, degree, len(xs))
	}
	m := degree + 1
	// Normal equations: (VᵀV) c = Vᵀy with V the Vandermonde matrix.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1)
	}
	for k := range xs {
		pow := make([]float64, m)
		pow[0] = 1
		for j := 1; j < m; j++ {
			pow[j] = pow[j-1] * xs[k]
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a[i][j] += pow[i] * pow[j]
			}
			a[i][m] += pow[i] * ys[k]
		}
	}
	coeffs, err := SolveLinear(a)
	if err != nil {
		return nil, fmt.Errorf("polyfit: %w", err)
	}
	return coeffs, nil
}

// SolveLinear solves the augmented system [A | b] given as rows of length
// n+1, using Gaussian elimination with partial pivoting. The input is
// mutated. It returns the solution vector of length n.
func SolveLinear(aug [][]float64) ([]float64, error) {
	n := len(aug)
	for i := 0; i < n; i++ {
		if len(aug[i]) != n+1 {
			return nil, fmt.Errorf("solve: row %d has %d entries, want %d: %w", i, len(aug[i]), n+1, ErrDimensionMismatch)
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-300 {
			return nil, fmt.Errorf("solve: singular matrix at column %d", col)
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		inv := 1 / aug[col][col]
		for r := col + 1; r < n; r++ {
			f := aug[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := aug[i][n]
		for j := i + 1; j < n; j++ {
			s -= aug[i][j] * x[j]
		}
		x[i] = s / aug[i][i]
	}
	return x, nil
}

// LinFit fits y ≈ a + b·x and returns (a, b). It is a convenience wrapper
// around PolyFit for the linear security-level model.
func LinFit(xs, ys []float64) (intercept, slope float64, err error) {
	c, err := PolyFit(xs, ys, 1)
	if err != nil {
		return 0, 0, err
	}
	return c[0], c[1], nil
}

// RSquared returns the coefficient of determination of predictions pred
// against observations obs. It returns NaN when obs has zero variance.
func RSquared(obs, pred []float64) float64 {
	if len(obs) != len(pred) || len(obs) == 0 {
		return math.NaN()
	}
	mean := Sum(obs) / float64(len(obs))
	var ssRes, ssTot float64
	for i := range obs {
		r := obs[i] - pred[i]
		ssRes += r * r
		d := obs[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}
