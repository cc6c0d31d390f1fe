package optimize_test

import (
	"math"
	"slices"
	"testing"

	"quhe/internal/qnet"
)

// The discrete solver the paper names beside these continuous ones,
// Algorithm 2's branch and bound, is qnet.Stage2.Maximize. These tests hold
// its search to exhaustive enumeration, as the tests beside them hold the
// barrier to the baselines. They sit in package optimize_test because qnet
// imports optimize.

// exhaustive values every assignment of p from Eq. (22) and returns the
// best value and the number of leaves valued (one per assignment).
func exhaustive(p *qnet.Stage2) (best float64, leaves int) {
	cur := make([]int, len(p.Reward))
	best = math.Inf(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == len(cur) {
			leaves++
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
	return best, leaves
}

// separable returns the program whose value is the sum of the chosen
// rewards: no delay term.
func separable(reward [][]float64) *qnet.Stage2 {
	delay := make([][]float64, len(reward))
	for i := range delay {
		delay[i] = make([]float64, len(reward[i]))
	}
	return &qnet.Stage2{Reward: reward, Delay: delay}
}

// TestBnBPrunes: with a tight bound on a strongly separable program, branch
// and bound pops far fewer nodes than the enumerator values leaves.
func TestBnBPrunes(t *testing.T) {
	reward := make([][]float64, 8)
	for i := range reward {
		reward[i] = []float64{0, 100, 1} // choice 1 dominates
	}
	p := separable(reward)
	sol, err := p.Maximize()
	if err != nil {
		t.Fatal(err)
	}
	if _, leaves := exhaustive(p); sol.Nodes >= leaves {
		t.Errorf("%d nodes popped for %d leaves valued (no pruning)", sol.Nodes, leaves)
	}
	if !slices.Equal(sol.Assign, []int{1, 1, 1, 1, 1, 1, 1, 1}) || sol.Value != 800 {
		t.Errorf("Assign %v value %v, want all 1s at 800", sol.Assign, sol.Value)
	}
}

// TestBnBIncumbentsMonotone: the trace of popped bounds, one per node after
// the root, never rises, and it reaches the optimum.
func TestBnBIncumbentsMonotone(t *testing.T) {
	sol, err := separable([][]float64{{1, 5, 2}, {7, 3, 4}, {2, 2, 9}}).Maximize()
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Trace) != sol.Nodes-1 {
		t.Errorf("trace of %d bounds for %d nodes, want one per node after the root", len(sol.Trace), sol.Nodes)
	}
	for i := 1; i < len(sol.Trace); i++ {
		if sol.Trace[i] > sol.Trace[i-1] {
			t.Errorf("bound rose at node %d: %v", i+1, sol.Trace[:i+1])
		}
	}
	if sol.Value != 5+7+9 || !slices.Contains(sol.Trace, sol.Value) {
		t.Errorf("Value %v, trace %v, want 21 reached by the trace", sol.Value, sol.Trace)
	}
}

// TestExhaustiveCountsEvals: the enumerator values every one of the
// choices^clients assignments and finds the best, as Maximize does.
func TestExhaustiveCountsEvals(t *testing.T) {
	p := separable([][]float64{{0, 100, 200, 300}, {0, 10, 20, 30}, {0, 1, 2, 3}})
	best, leaves := exhaustive(p)
	if leaves != 64 {
		t.Errorf("leaves = %d, want 64", leaves)
	}
	if best != 333 {
		t.Errorf("best = %v, want 333", best)
	}
	if sol, err := p.Maximize(); err != nil || sol.Value != best {
		t.Errorf("Maximize = %v (err %v), want %v", sol.Value, err, best)
	}
}
