package qnet

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"quhe/internal/optimize"
)

func surfnetStage1(t *testing.T, phiMin float64) Stage1 {
	t.Helper()
	net := SURFnet()
	lo := make([]float64, net.NumRoutes())
	for i := range lo {
		lo[i] = phiMin
	}
	p, err := NewStage1(net, lo)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStage1ObjectiveIsMinusLogUtility: inside the feasible region the
// program's objective is −ln U_qkd at the Eq. (18) Werner point, and
// Penalized is the same number; outside, Objective is +Inf and Penalized
// finite, above any feasible value and growing with the violation.
func TestStage1ObjectiveIsMinusLogUtility(t *testing.T) {
	p := surfnetStage1(t, 0.5)
	net := SURFnet()
	phi := []float64{2.098, 1.106, 1.103, 1.872, 0.6864, 0.5781} // Table V
	w, err := net.WernerFromRates(phi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.LogUtility(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Objective(phi); got != -want {
		t.Errorf("Objective = %v, want −ln U_qkd = %v", got, -want)
	}
	if got := p.Penalized(phi); got != -want {
		t.Errorf("Penalized = %v inside the region, want %v", got, -want)
	}
	outside := [][]float64{
		{0.4, 1, 1, 1, 1, 1},        // (17a): below φ_min
		{60, 1, 1, 1, 1, 1},         // (19a): link 2 over capacity
		{2, 1, 1, 1, 6, 6},          // (20c): route 6 at zero key fraction
		{math.NaN(), 1, 1, 1, 1, 1}, // not a rate
	}
	for _, x := range outside[:3] {
		if got := p.Objective(x); !math.IsInf(got, 1) {
			t.Errorf("Objective(%v) = %v, want +Inf", x, got)
		}
		if got := p.Penalized(x); math.IsInf(got, 0) || got < 1e3 {
			t.Errorf("Penalized(%v) = %v, want finite ≥ 1e3", x, got)
		}
	}
	if p.Penalized([]float64{70, 1, 1, 1, 1, 1}) <= p.Penalized(outside[1]) {
		t.Error("penalty does not grow with the violation")
	}
	if got := p.Objective(outside[3]); !math.IsInf(got, 1) {
		t.Errorf("Objective(NaN…) = %v, want +Inf", got)
	}
	if _, err := NewStage1(net, []float64{1, 1}); err == nil {
		t.Error("two minimum rates accepted for six routes")
	}
}

// inBox reports whether x lies inside b, bounds included.
func inBox(b optimize.Box, x []float64) bool {
	if len(x) != len(b.Lo) {
		return false
	}
	for i := range x {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// TestStage1Boxes: the start point is feasible and inside both boxes, every
// corner of FeasibleBox is feasible, and Box reaches each route's bottleneck.
func TestStage1Boxes(t *testing.T) {
	p := surfnetStage1(t, 0.5)
	start := p.Start()
	if math.IsInf(p.Objective(start), 1) {
		t.Fatal("start point infeasible")
	}
	box, feas := p.Box(), p.FeasibleBox()
	if !inBox(box, start) || !inBox(feas, start) {
		t.Errorf("start %v outside box %v or feasible box %v", start, box, feas)
	}
	if math.IsInf(p.Objective(feas.Hi), 1) {
		t.Errorf("feasible box's upper corner %v is infeasible", feas.Hi)
	}
	// Route 4 runs links 15 and 18: its bottleneck is β_18 = 46.82.
	if box.Hi[3] != 46.82 || box.Lo[3] != 0.5 {
		t.Errorf("route 4 box [%v, %v], want [0.5, 46.82]", box.Lo[3], box.Hi[3])
	}
}

// TestStage1SolveSingleRoute holds Solve to a closed form of the same
// program: one route on one link maximizes ln φ + ln F_skf(1 − φ/β), found
// here by golden-section search on the scalar.
func TestStage1SolveSingleRoute(t *testing.T) {
	const beta = 40.0
	net, err := New([]Link{{ID: 1, Beta: beta}}, []Route{{ID: 1, LinkIDs: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStage1(net, []float64{1e-2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	g := func(phi float64) float64 { return math.Log(phi) + math.Log(SecretKeyFraction(1-phi/beta)) }
	lo, hi := 1e-2, beta*(1-WernerZeroSKF)*0.999
	const invPhi = 0.6180339887498949
	for hi-lo > 1e-12 {
		a, b := hi-(hi-lo)*invPhi, lo+(hi-lo)*invPhi
		if g(a) > g(b) {
			hi = b
		} else {
			lo = a
		}
	}
	want := (lo + hi) / 2
	if math.Abs(sol.Phi[0]-want)/want > 1e-6 || math.Abs(sol.LogUtility-g(want)) > 1e-10 {
		t.Errorf("Solve: φ = %.9f ln U = %.12f, scalar optimum φ = %.9f ln U = %.12f",
			sol.Phi[0], sol.LogUtility, want, g(want))
	}
	if !sol.Converged || len(sol.W) != 1 || sol.W[0] != 1-sol.Phi[0]/beta {
		t.Errorf("solution %+v: not converged or W off the Eq. (18) point", sol)
	}
}

func TestStage1SolveInfeasible(t *testing.T) {
	net, err := New([]Link{{ID: 1, Beta: 1}}, []Route{{ID: 1, LinkIDs: []int{1}}, {ID: 2, LinkIDs: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewStage1(net, []float64{0.2, 0.2}) // load 0.42 of β = 1: ̟ = 0.58 < threshold
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); !errors.Is(err, ErrStage1Infeasible) {
		t.Errorf("Solve err = %v, want ErrStage1Infeasible", err)
	}
}

// TestStage1SolveAllocs holds the live solve's allocation count: the
// planner re-solves on every replan, inside every op of the benchmark's
// churn workload. 249 is what the projected-gradient solver it replaced
// made; the barrier's Newton steps allocate nothing, so what is left is
// the statement's closures, the workspaces and the trace.
func TestStage1SolveAllocs(t *testing.T) {
	p := surfnetStage1(t, 1e-2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 249 {
		t.Errorf("Solve makes %.0f allocations, want ≤ 249", allocs)
	}
	t.Logf("%.0f allocations per solve (bound 249)", allocs)
}

// TestStage1DerivativesMatchFiniteDifferences holds every derivative the
// barrier takes of P3 to finite differences at random rates from the
// feasible box (kept off its upper corner so a step stays in the domain):
// each gradient to central differences of its function, each Hessian (as
// the weighted sum Hess adds) to central differences of the exact
// gradient.
func TestStage1DerivativesMatchFiniteDifferences(t *testing.T) {
	const tol = 1e-6
	p := surfnetStage1(t, 0.5)
	f0, ineqs, _ := newP3(p).statement()
	box := p.FeasibleBox()
	rng := rand.New(rand.NewSource(33))
	worst := 0.0
	for k := 0; k < 20; k++ {
		x := make([]float64, len(box.Lo))
		for i := range x {
			x[i] = math.Log(box.Lo[i] + 0.9*rng.Float64()*(box.Hi[i]-box.Lo[i]))
		}
		for j, f := range append([]optimize.Smooth{f0}, ineqs...) {
			grad := func(x []float64) []float64 {
				g := make([]float64, len(x))
				f.Grad(x, g)
				return g
			}
			errs := []float64{relErr(grad(x), optimize.Gradient(f.F, x))}
			// Hess adds w·∇²F: add half of it to a matrix of ones and
			// read it back.
			hess := make([][]float64, len(x))
			for i := range hess {
				hess[i] = make([]float64, len(x))
				for j := range hess[i] {
					hess[i][j] = 1
				}
			}
			if f.Hess != nil {
				f.Hess(x, 0.5, hess)
			}
			for i, row := range hess {
				for j := range row {
					row[j] = (row[j] - 1) / 0.5
				}
				errs = append(errs, relErr(row, optimize.Gradient(func(x []float64) float64 { return grad(x)[i] }, x)))
			}
			for _, e := range errs {
				if e > tol {
					t.Errorf("point %d, function %d (0 is the objective): relative error %.2e > %.0e", k, j, e, tol)
				}
				worst = math.Max(worst, e)
			}
		}
	}
	t.Logf("worst relative error %.1e (bound %.0e)", worst, tol)
}

// relErr is the largest entry of |got − want| relative to the largest
// entry of either vector.
func relErr(got, want []float64) float64 {
	worst, scale := 0.0, 0.0
	for i := range want {
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Max(math.Abs(got[i]), math.Abs(want[i])))
	}
	if scale == 0 {
		return 0
	}
	return worst / scale
}

// TestStage1SolveConcurrent: each Solve owns its scratch, so solves of one
// Stage1 on several goroutines (the Fig. 3 workers share one config) reach
// the same optimum bit for bit. Run it under -race.
func TestStage1SolveConcurrent(t *testing.T) {
	p := surfnetStage1(t, 1e-2)
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Solve()
			if err != nil || got.LogUtility != want.LogUtility || !slices.Equal(got.Phi, want.Phi) {
				t.Errorf("concurrent solve: ln U %v φ %v err %v, want %v %v", got.LogUtility, got.Phi, err, want.LogUtility, want.Phi)
			}
		}()
	}
	wg.Wait()
}
