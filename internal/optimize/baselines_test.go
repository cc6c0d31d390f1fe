package optimize

import (
	"math"
	"testing"

	"quhe/internal/mathutil"
)

func bowl(x []float64) float64 {
	return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2)
}

func unitBox2() Box {
	return Box{Lo: []float64{-5, -5}, Hi: []float64{5, 5}}
}

func TestBoxHelpers(t *testing.T) {
	box := unitBox2()
	if err := box.Validate(2); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := box.Validate(3); err == nil {
		t.Error("wrong-dimension Validate passed")
	}
	x := []float64{-9, 9}
	box.Project(x)
	if !mathutil.VecApproxEqual(x, []float64{-5, 5}, 0) {
		t.Errorf("Project = %v", x)
	}
}

func TestGradientDescentConverges(t *testing.T) {
	res, err := GradientDescent(bowl, unitBox2(), []float64{4, 4}, GDOptions{})
	if err != nil {
		t.Fatalf("GradientDescent: %v", err)
	}
	if !mathutil.VecApproxEqual(res.X, []float64{1, -2}, 1e-2) {
		t.Errorf("X = %v, want [1 -2]", res.X)
	}
}

func TestAnnealFindsGlobalBasin(t *testing.T) {
	// Rastrigin-like multimodal function; SA should land near the global
	// optimum at the origin (value 0) rather than a side lobe.
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v*v - 3*math.Cos(2*math.Pi*v) + 3
		}
		return s
	}
	box := Box{Lo: []float64{-5, -5}, Hi: []float64{5, 5}}
	res, err := Anneal(f, box, []float64{4, -4}, SAOptions{Iters: 30000, Seed: 3})
	if err != nil {
		t.Fatalf("Anneal: %v", err)
	}
	if res.Value > 1.0 {
		t.Errorf("Anneal value = %v, want < 1 (near global optimum)", res.Value)
	}
}

func TestAnnealRejectsInfeasible(t *testing.T) {
	// f is +Inf on half the box; SA must end in the feasible half.
	f := func(x []float64) float64 {
		if x[0] > 1 {
			return math.Inf(1)
		}
		return (x[0] + 3) * (x[0] + 3)
	}
	box := Box{Lo: []float64{-5}, Hi: []float64{5}}
	res, err := Anneal(f, box, []float64{0}, SAOptions{Iters: 5000, Seed: 2})
	if err != nil {
		t.Fatalf("Anneal: %v", err)
	}
	if res.X[0] > 1 {
		t.Errorf("Anneal ended infeasible: %v", res.X)
	}
	if !mathutil.ApproxEqual(res.X[0], -3, 0.1) {
		t.Errorf("Anneal X = %v, want ≈ -3", res.X)
	}
}

func TestRandomSearchFindsNeighborhood(t *testing.T) {
	res, err := RandomSearch(bowl, unitBox2(), RSOptions{Samples: 20000, Seed: 5})
	if err != nil {
		t.Fatalf("RandomSearch: %v", err)
	}
	if res.Value > 0.05 {
		t.Errorf("RandomSearch value = %v, want near 0", res.Value)
	}
}

func TestRandomSearchAllInfeasible(t *testing.T) {
	f := func([]float64) float64 { return math.Inf(1) }
	if _, err := RandomSearch(f, unitBox2(), RSOptions{Samples: 100}); err == nil {
		t.Error("all-infeasible search did not error")
	}
}

func TestRandomSearchDeterministicForSeed(t *testing.T) {
	a, err := RandomSearch(bowl, unitBox2(), RSOptions{Samples: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSearch(bowl, unitBox2(), RSOptions{Samples: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !mathutil.VecApproxEqual(a.X, b.X, 0) || a.Value != b.Value {
		t.Error("RandomSearch not deterministic for fixed seed")
	}
}
