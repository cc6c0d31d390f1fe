package core

import (
	"fmt"
	"math"
	"time"
)

// Algorithm 4's outer loop: it stops when the P1 objective moves by less
// than quheTol (relative; the paper's accuracy ε), or after quheMaxOuter
// alternations of Stages 2 and 3.
const (
	quheTol      = 1e-4
	quheMaxOuter = 10
)

// QuHEOptions tunes the whole-procedure Algorithm 4.
type QuHEOptions struct {
	// Initial overrides the deterministic feasible start (used by the
	// Fig. 3 random-initialization study).
	Initial *Variables
}

// SolveResult is the outcome of SolveQuHE or SolveBaseline.
type SolveResult struct {
	// Vars is the final variable assignment; Eval its decomposed objective.
	Vars Variables
	Eval Evaluation
	// OuterIters counts Algorithm-4 iterations; StageCalls the number of
	// invocations of each stage (Fig. 5(a)).
	OuterIters int
	StageCalls [3]int
	// StageRuntime accumulates per-stage wall-clock time; Runtime is the
	// total (Fig. 5(a)).
	StageRuntime [3]time.Duration
	Runtime      time.Duration
	// Stage1, Stage2, Stage3 hold the last per-stage results (convergence
	// traces for Fig. 4).
	Stage1 Stage1Result
	Stage2 Stage2Result
	Stage3 Stage3Result
	// Converged reports outer-loop convergence within quheMaxOuter.
	Converged bool
}

// SolveQuHE runs the whole QuHE procedure (Algorithm 4): Stage 1 once (its
// block (φ,w) is separable from the rest of the objective, so its optimum
// never changes across outer iterations — matching Fig. 5(a)'s single call
// per stage), then alternating Stage 2 / Stage 3 until the P1 objective
// moves by less than quheTol.
func (c *Config) SolveQuHE(o QuHEOptions) (SolveResult, error) {
	start := time.Now()
	var res SolveResult

	v, err := c.initialVariables(o.Initial)
	if err != nil {
		return res, err
	}

	// Stage 1: the (φ, w) block.
	s1, err := c.SolveStage1(Stage1Options{Method: Stage1Barrier})
	if err != nil {
		return res, fmt.Errorf("core: quhe stage 1: %w", err)
	}
	res.Stage1 = s1
	res.StageCalls[0]++
	res.StageRuntime[0] += s1.Runtime
	v.Phi = s1.Phi
	v.W = s1.W

	prev := math.Inf(-1)
	for iter := 0; iter < quheMaxOuter; iter++ {
		res.OuterIters++

		s2, err := c.SolveStage2(v)
		if err != nil {
			return res, fmt.Errorf("core: quhe outer %d: %w", iter, err)
		}
		res.Stage2 = s2
		res.StageCalls[1]++
		res.StageRuntime[1] += s2.Runtime
		v.Lambda = s2.Lambda
		v.T = s2.TS2

		s3, err := c.SolveStage3(v)
		if err != nil {
			return res, fmt.Errorf("core: quhe outer %d: %w", iter, err)
		}
		res.Stage3 = s3
		res.StageCalls[2]++
		res.StageRuntime[2] += s3.Runtime
		v.P, v.B, v.FC, v.FS, v.T = s3.P, s3.B, s3.FC, s3.FS, s3.T

		ev, err := c.Evaluate(v)
		if err != nil {
			return res, fmt.Errorf("core: quhe outer %d evaluate: %w", iter, err)
		}
		if math.Abs(ev.Objective-prev) < quheTol*(1+math.Abs(ev.Objective)) {
			res.Converged = true
			prev = ev.Objective
			break
		}
		prev = ev.Objective
	}

	res.Vars = v
	res.Eval, err = c.Evaluate(v)
	if err != nil {
		return res, err
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// initialVariables returns a copy of the override or the deterministic
// default start.
func (c *Config) initialVariables(override *Variables) (Variables, error) {
	if override != nil {
		return override.Clone(), nil
	}
	return c.DefaultVariables()
}

// BaselineKind selects a whole-procedure baseline (§VI-B).
type BaselineKind int

const (
	// BaselineAA is average allocation: λ = smallest, p = p_max,
	// b = B_total/N, f_c = f_c^max, f_s = f_total/N.
	BaselineAA BaselineKind = iota + 1
	// BaselineOLAA optimizes λ only (Stage 2) over average allocation.
	BaselineOLAA
	// BaselineOCCR optimizes communication/computation resources only
	// (Stage 3) with λ fixed at the smallest value.
	BaselineOCCR
)

// String implements fmt.Stringer with the labels of Fig. 5(d).
func (k BaselineKind) String() string {
	switch k {
	case BaselineAA:
		return "AA"
	case BaselineOLAA:
		return "OLAA"
	case BaselineOCCR:
		return "OCCR"
	default:
		return fmt.Sprintf("BaselineKind(%d)", int(k))
	}
}

// SolveBaseline runs one of the paper's whole-procedure baselines. All
// baselines share the optimal Stage-1 (φ, w) block, as in Fig. 5(d)
// ("assuming the optimal U_qkd is obtained in Stage 1").
func (c *Config) SolveBaseline(kind BaselineKind) (SolveResult, error) {
	start := time.Now()
	var res SolveResult

	s1, err := c.SolveStage1(Stage1Options{Method: Stage1Barrier})
	if err != nil {
		return res, fmt.Errorf("core: baseline %s stage 1: %w", kind, err)
	}
	res.Stage1 = s1
	res.StageCalls[0]++
	res.StageRuntime[0] += s1.Runtime

	n := c.N()
	v := Variables{
		Phi:    s1.Phi,
		W:      s1.W,
		Lambda: make([]float64, n),
		P:      make([]float64, n),
		B:      make([]float64, n),
		FC:     make([]float64, n),
		FS:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		v.Lambda[i] = c.LambdaSet[0]
		v.P[i] = c.PMax[i]
		v.B[i] = c.BTotal / float64(n)
		v.FC[i] = c.FCMax[i]
		v.FS[i] = c.FSTotal / float64(n)
	}

	switch kind {
	case BaselineAA:
		// Nothing to optimize.
	case BaselineOLAA:
		s2, err := c.SolveStage2(v)
		if err != nil {
			return res, fmt.Errorf("core: baseline OLAA: %w", err)
		}
		res.Stage2 = s2
		res.StageCalls[1]++
		res.StageRuntime[1] += s2.Runtime
		v.Lambda = s2.Lambda
	case BaselineOCCR:
		s3, err := c.SolveStage3(v)
		if err != nil {
			return res, fmt.Errorf("core: baseline OCCR: %w", err)
		}
		res.Stage3 = s3
		res.StageCalls[2]++
		res.StageRuntime[2] += s3.Runtime
		v.P, v.B, v.FC, v.FS, v.T = s3.P, s3.B, s3.FC, s3.FS, s3.T
	default:
		return res, fmt.Errorf("core: unknown baseline %d", int(kind))
	}

	v.T = c.maxDelay(v)
	res.Vars = v
	res.Eval, err = c.Evaluate(v)
	if err != nil {
		return res, err
	}
	res.OuterIters = 1
	res.Runtime = time.Since(start)
	return res, nil
}
