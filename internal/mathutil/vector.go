// Package mathutil provides small numeric helpers shared by the optimization
// and simulation packages: dense vector operations, summary statistics, and
// least-squares fitting.
//
// All functions operate on plain []float64 slices. Functions that return a
// vector allocate a fresh slice; functions suffixed with "InPlace" mutate
// their first argument. None of the functions retain references to their
// inputs.
package mathutil

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned (or wrapped) when two vectors that must
// share a length do not.
var ErrDimensionMismatch = errors.New("mathutil: dimension mismatch")

// Clone returns a copy of x. Clone(nil) returns an empty, non-nil slice so
// callers can append to the result safely.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Dot returns the inner product of x and y. It panics if the lengths differ,
// as this is a programmer error rather than a runtime condition.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathutil: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// AXPYInPlace computes y ← y + a*x in place.
func AXPYInPlace(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathutil: AXPYInPlace length mismatch %d != %d", len(x), len(y)))
	}
	for i := range y {
		y[i] += a * x[i]
	}
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampVecInPlace clamps every entry of x into [lo[i], hi[i]].
func ClampVecInPlace(x, lo, hi []float64) {
	for i := range x {
		x[i] = Clamp(x[i], lo[i], hi[i])
	}
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Square returns an n×n zero matrix whose rows share one backing array.
func Square(n int) [][]float64 {
	back := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// Fill returns a length-n slice with every entry set to v.
func Fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// AllFinite reports whether every entry of x is finite (neither NaN nor ±Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b differ by at most tol in absolute value
// or by tol in relative value (whichever is looser). NaNs are never equal.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// VecApproxEqual reports whether each pair of entries is ApproxEqual.
func VecApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ApproxEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}
