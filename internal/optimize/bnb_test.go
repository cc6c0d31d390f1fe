package optimize

import (
	"math"
	"math/rand"
	"testing"
)

// MaximizeExhaustive enumerates every assignment and returns the best: the
// correctness oracle for MaximizeBnB. evals reports the number of Value
// calls (NumChoices^NumVars).
func MaximizeExhaustive(numVars, numChoices int, value func([]int) float64) (assign []int, best float64, evals int) {
	assign = make([]int, numVars)
	cur := make([]int, numVars)
	best = math.Inf(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == numVars {
			evals++
			if v := value(cur); v > best {
				best = v
				copy(assign, cur)
			}
			return
		}
		for c := 0; c < numChoices; c++ {
			cur[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return assign, best, evals
}

// separableProblem builds a BnB problem whose objective is a sum of
// per-variable scores, with the exact per-variable max as upper bound.
func separableProblem(scores [][]float64) BnBProblem {
	numVars := len(scores)
	numChoices := len(scores[0])
	maxPer := make([]float64, numVars)
	for i, row := range scores {
		maxPer[i] = math.Inf(-1)
		for _, v := range row {
			if v > maxPer[i] {
				maxPer[i] = v
			}
		}
	}
	return BnBProblem{
		NumVars:    numVars,
		NumChoices: numChoices,
		Value: func(assign []int) float64 {
			s := 0.0
			for i, c := range assign {
				s += scores[i][c]
			}
			return s
		},
		UpperBound: func(assign []int, assigned int) float64 {
			s := 0.0
			for i := 0; i < assigned; i++ {
				s += scores[i][assign[i]]
			}
			for i := assigned; i < numVars; i++ {
				s += maxPer[i]
			}
			return s
		},
	}
}

func TestBnBSeparableMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		numVars := 2 + rng.Intn(5)
		numChoices := 2 + rng.Intn(3)
		scores := make([][]float64, numVars)
		for i := range scores {
			scores[i] = make([]float64, numChoices)
			for j := range scores[i] {
				scores[i][j] = rng.NormFloat64() * 10
			}
		}
		p := separableProblem(scores)
		got, err := MaximizeBnB(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, want, _ := MaximizeExhaustive(numVars, numChoices, p.Value)
		if math.Abs(got.Value-want) > 1e-12 {
			t.Errorf("trial %d: BnB = %v, exhaustive = %v", trial, got.Value, want)
		}
	}
}

// TestBnBCoupledMaxTerm mimics Stage 2's structure: separable rewards minus
// a max-delay coupling term.
func TestBnBCoupledMaxTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		numVars := 2 + rng.Intn(4)
		numChoices := 3
		reward := make([][]float64, numVars)
		delay := make([][]float64, numVars)
		for i := 0; i < numVars; i++ {
			reward[i] = make([]float64, numChoices)
			delay[i] = make([]float64, numChoices)
			for j := 0; j < numChoices; j++ {
				reward[i][j] = rng.Float64() * 10
				delay[i][j] = rng.Float64() * 5
			}
		}
		value := func(assign []int) float64 {
			s, dmax := 0.0, 0.0
			for i, c := range assign {
				s += reward[i][c]
				if delay[i][c] > dmax {
					dmax = delay[i][c]
				}
			}
			return s - dmax
		}
		// Admissible bound: max rewards for unassigned vars; the max-delay
		// term is lower-bounded by the max over (assigned delays, min
		// per-variable delay for the unassigned).
		upper := func(assign []int, assigned int) float64 {
			s := 0.0
			dmax := 0.0
			for i := 0; i < assigned; i++ {
				s += reward[i][assign[i]]
				if d := delay[i][assign[i]]; d > dmax {
					dmax = d
				}
			}
			for i := assigned; i < numVars; i++ {
				best := math.Inf(-1)
				minDelay := math.Inf(1)
				for j := 0; j < numChoices; j++ {
					if reward[i][j] > best {
						best = reward[i][j]
					}
					if delay[i][j] < minDelay {
						minDelay = delay[i][j]
					}
				}
				s += best
				if minDelay > dmax {
					dmax = minDelay
				}
			}
			return s - dmax
		}
		p := BnBProblem{NumVars: numVars, NumChoices: numChoices, Value: value, UpperBound: upper}
		got, err := MaximizeBnB(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, want, _ := MaximizeExhaustive(numVars, numChoices, value)
		if math.Abs(got.Value-want) > 1e-12 {
			t.Errorf("trial %d: BnB = %v, exhaustive = %v", trial, got.Value, want)
		}
	}
}

func TestBnBPrunes(t *testing.T) {
	// With a tight bound on a strongly separable problem, BnB should visit
	// far fewer nodes than exhaustive enumeration evaluates leaves.
	scores := make([][]float64, 8)
	for i := range scores {
		scores[i] = []float64{0, 100, 1} // choice 1 dominates
	}
	p := separableProblem(scores)
	res, err := MaximizeBnB(p)
	if err != nil {
		t.Fatal(err)
	}
	_, _, evals := MaximizeExhaustive(8, 3, p.Value)
	if res.Nodes >= evals {
		t.Errorf("BnB nodes %d >= exhaustive evals %d (no pruning)", res.Nodes, evals)
	}
	for _, c := range res.Assign {
		if c != 1 {
			t.Errorf("Assign = %v, want all 1s", res.Assign)
		}
	}
}

func TestBnBIncumbentsMonotone(t *testing.T) {
	scores := [][]float64{{1, 5, 2}, {7, 3, 4}, {2, 2, 9}}
	res, err := MaximizeBnB(separableProblem(scores))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Incumbents); i++ {
		if res.Incumbents[i] < res.Incumbents[i-1] {
			t.Errorf("incumbent decreased at %d: %v", i, res.Incumbents[:i+1])
		}
	}
	if res.Value != 5+7+9 {
		t.Errorf("Value = %v, want 21", res.Value)
	}
}

func TestBnBValidation(t *testing.T) {
	if _, err := MaximizeBnB(BnBProblem{}); err == nil {
		t.Error("zero problem accepted")
	}
	if _, err := MaximizeBnB(BnBProblem{NumVars: 1, NumChoices: 1}); err == nil {
		t.Error("nil Value/UpperBound accepted")
	}
}

func TestBnBUnsoundBoundDetected(t *testing.T) {
	p := BnBProblem{
		NumVars:    2,
		NumChoices: 2,
		Value:      func(a []int) float64 { return float64(a[0] + a[1]) },
		// Bound of −∞ prunes everything.
		UpperBound: func([]int, int) float64 { return math.Inf(-1) },
	}
	if _, err := MaximizeBnB(p); err == nil {
		t.Error("unsound bound did not produce an error")
	}
}

func TestExhaustiveCountsEvals(t *testing.T) {
	_, best, evals := MaximizeExhaustive(3, 4, func(a []int) float64 {
		return float64(a[0]*100 + a[1]*10 + a[2])
	})
	if evals != 64 {
		t.Errorf("evals = %d, want 64", evals)
	}
	if best != 333 {
		t.Errorf("best = %v, want 333", best)
	}
}
