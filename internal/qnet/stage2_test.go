package qnet

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// exhaustiveStage2 is Maximize's correctness oracle: it values every
// assignment of p straight from Eq. (22) — a NaN entry makes its value NaN,
// which never wins — and returns the best value.
func exhaustiveStage2(p *Stage2) (best float64) {
	n := len(p.Reward)
	cur := make([]int, n)
	best = math.Inf(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			val, dmax := p.Const, 0.0
			for i, j := range cur {
				val += p.Reward[i][j]
				dmax = math.Max(dmax, p.Delay[i][j])
			}
			if val -= p.AlphaT * dmax; val > best {
				best = val
			}
			return
		}
		for j := range p.Reward[i] {
			cur[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// tables returns an n × m table whose entries draw from f.
func tables(n, m int, f func() float64) [][]float64 {
	t := make([][]float64, n)
	for i := range t {
		t[i] = make([]float64, m)
		for j := range t[i] {
			t[i][j] = f()
		}
	}
	return t
}

// checkAgainstExhaustive solves p and holds its value to the oracle's, and
// its Value and MaxDelay to what its Assign reads in the tables.
func checkAgainstExhaustive(t *testing.T, trial int, p *Stage2) {
	t.Helper()
	got, err := p.Maximize()
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	want := exhaustiveStage2(p)
	if math.Abs(got.Value-want) > 1e-12 {
		t.Errorf("trial %d: Maximize = %v, exhaustive = %v", trial, got.Value, want)
	}
	val, dmax := p.Const, 0.0
	for i, j := range got.Assign {
		val += p.Reward[i][j]
		dmax = math.Max(dmax, p.Delay[i][j])
	}
	if val -= p.AlphaT * dmax; val != got.Value || dmax != got.MaxDelay {
		t.Errorf("trial %d: Assign %v reads value %v, max delay %v; solution says %v, %v",
			trial, got.Assign, val, dmax, got.Value, got.MaxDelay)
	}
}

// TestStage2SeparableMatchesExhaustive: with no delay term the program is a
// sum of per-client rewards, and branch and bound finds its optimum.
func TestStage2SeparableMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n, m := 2+rng.Intn(5), 2+rng.Intn(3)
		p := &Stage2{
			Reward: tables(n, m, func() float64 { return rng.NormFloat64() * 10 }),
			Delay:  tables(n, m, func() float64 { return 0 }),
		}
		checkAgainstExhaustive(t, trial, p)
	}
}

// TestStage2CoupledMatchesExhaustive: Stage 2's own structure, rewards
// less a max-delay term that couples the clients, solved to the optimum.
func TestStage2CoupledMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := &Stage2{AlphaT: 1} // one program re-filled: every solve after the first is warm
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		p.Reward = make([][]float64, n)
		p.Delay = make([][]float64, n)
		for i := 0; i < n; i++ {
			p.Reward[i], p.Delay[i] = make([]float64, 3), make([]float64, 3)
			for j := 0; j < 3; j++ {
				p.Reward[i][j] = rng.Float64() * 10
				p.Delay[i][j] = rng.Float64() * 5
			}
		}
		checkAgainstExhaustive(t, trial, p)
	}
}

// TestStage2MaxDelayCouples: a client off the critical path keeps its best
// reward although that choice is its slowest, because another client sets
// the max delay whatever it takes.
func TestStage2MaxDelayCouples(t *testing.T) {
	p := &Stage2{
		Reward: [][]float64{{1, 2}, {1, 2}},
		Delay:  [][]float64{{10, 20}, {1, 5}},
		AlphaT: 1,
	}
	sol, err := p.Maximize()
	if err != nil {
		t.Fatal(err)
	}
	// Client 0's fast choice saves 10 delay for 1 reward; client 1's slow
	// one costs nothing under client 0's 10.
	if !slices.Equal(sol.Assign, []int{0, 1}) || sol.Value != 3-10 || sol.MaxDelay != 10 {
		t.Errorf("Assign %v value %v max delay %v, want [0 1] at -7 with max delay 10", sol.Assign, sol.Value, sol.MaxDelay)
	}
}

// TestStage2NoFiniteAssignment: tables in which every assignment reads NaN
// fail typed, and a NaN entry is a choice never taken.
func TestStage2NoFiniteAssignment(t *testing.T) {
	nan := math.NaN()
	for name, p := range map[string]*Stage2{
		"NaN rewards": {Reward: [][]float64{{nan, nan}, {1, 2}}, Delay: [][]float64{{0, 0}, {0, 0}}},
		"NaN delays":  {Reward: [][]float64{{1, 2}, {1, 2}}, Delay: [][]float64{{0, 0}, {nan, nan}}, AlphaT: 1},
		"−∞ rewards":  {Reward: [][]float64{{math.Inf(-1)}}, Delay: [][]float64{{0}}},
	} {
		if _, err := p.Maximize(); !errors.Is(err, ErrStage2Infeasible) {
			t.Errorf("%s: err = %v, want ErrStage2Infeasible", name, err)
		}
	}
	// Client 1's row holds a NaN reward and a NaN delay on its best
	// reward; both are passed over, also in the bounds of every
	// subproblem in which client 1 is still open.
	p := &Stage2{Reward: [][]float64{{1, 0}, {1, 2, nan, 3}}, Delay: [][]float64{{0, 0}, {0, 0, 0, nan}}, AlphaT: 1}
	if sol, err := p.Maximize(); err != nil || !slices.Equal(sol.Assign, []int{0, 1}) || sol.Value != 3 {
		t.Errorf("NaN entries in an open row: Assign %v value %v err %v, want [0 1] at 3", sol.Assign, sol.Value, err)
	}
}

// TestStage2Validation: tables with no client, or whose rows disagree,
// are refused.
func TestStage2Validation(t *testing.T) {
	for name, p := range map[string]*Stage2{
		"no client":      {},
		"rows differ":    {Reward: [][]float64{{1}, {2}}, Delay: [][]float64{{0}}},
		"empty row":      {Reward: [][]float64{{}}, Delay: [][]float64{{}}},
		"columns differ": {Reward: [][]float64{{1, 2}}, Delay: [][]float64{{0}}},
	} {
		if _, err := p.Maximize(); err == nil || errors.Is(err, ErrStage2Infeasible) {
			t.Errorf("%s: err = %v, want a shape error", name, err)
		}
	}
}

// TestStage2WarmSolveAllocs: a program solved again allocates only its
// solution, Assign and Trace — the live planner solves on every replan.
func TestStage2WarmSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := &Stage2{
		Reward: tables(6, 3, func() float64 { return rng.Float64() }),
		Delay:  tables(6, 3, func() float64 { return rng.Float64() }),
		AlphaT: 1,
	}
	if _, err := p.Maximize(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Maximize(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("a warm solve allocates %.0f times, want ≤ 2", allocs)
	}
}
