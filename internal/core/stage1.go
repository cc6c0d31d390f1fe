package core

import (
	"fmt"
	"math"
	"time"

	"quhe/internal/optimize"
	"quhe/internal/qnet"
)

// Stage1Method selects the solver for Stage 1 (Problem P2/P3).
type Stage1Method int

const (
	// Stage1Barrier is the QuHE Stage-1 solver: the convexified log-rate
	// problem P3 solved by the interior-point method (Algorithm 1).
	Stage1Barrier Stage1Method = iota + 1
	// Stage1GD is the paper's gradient-descent baseline (learning rate
	// 0.01, §VI-B), run directly on the rates φ.
	Stage1GD
	// Stage1SA is the simulated-annealing baseline (simulannealbnd).
	Stage1SA
	// Stage1RS is the random-selection baseline: 10⁴ uniform samples.
	Stage1RS
)

// String implements fmt.Stringer with the labels used in Fig. 5(b)/(c).
func (m Stage1Method) String() string {
	switch m {
	case Stage1Barrier:
		return "QuHE"
	case Stage1GD:
		return "GD"
	case Stage1SA:
		return "SA"
	case Stage1RS:
		return "RS"
	default:
		return fmt.Sprintf("Stage1Method(%d)", int(m))
	}
}

// rsSamples is the RS baseline's budget: the paper's 10⁴ uniform draws.
const rsSamples = 10000

// Stage1Options tunes the Stage-1 solvers. The zero value uses defaults.
type Stage1Options struct {
	// Method selects the solver; default Stage1Barrier.
	Method Stage1Method
	// Seed seeds the stochastic baselines (SA, RS); 0 means fixed default.
	Seed int64
	// GDIters and SAIters override the GD and SA budgets when positive.
	// RS always takes the paper's rsSamples draws.
	GDIters int
	SAIters int
}

// Stage1Result reports a Stage-1 solve.
type Stage1Result struct {
	// Phi and W are the rate allocation and the Eq. (18) Werner point.
	Phi, W []float64
	// Objective is the minimized P2 objective (19):
	// −Σ ln F_skf(̟_n) − ln α_qkd − Σ ln φ_n. Lower is better; Fig. 5(c)
	// reports this value per method.
	Objective float64
	// UQKD is the resulting network utility (6).
	UQKD float64
	// Iters counts solver iterations; Trace is the per-iteration objective
	// (Fig. 4(a)).
	Iters int
	Trace []float64
	// Runtime is the wall-clock solve time (Fig. 5(b)).
	Runtime time.Duration
	// Converged reports solver-specific convergence.
	Converged bool
}

// SolveStage1 runs Algorithm 1 (or a baseline) and returns the optimal
// (φ, w) block. The barrier path optimizes over ϕ = ln φ, in which P3 is
// convex (Kar & Wehner), with constraints (20a)–(20c).
func (c *Config) SolveStage1(opts Stage1Options) (Stage1Result, error) {
	if opts.Method == 0 {
		opts.Method = Stage1Barrier
	}
	start := time.Now()
	var res Stage1Result
	prog, err := qnet.NewStage1(c.Net, c.PhiMin)
	if err != nil {
		return res, err
	}
	switch opts.Method {
	case Stage1Barrier:
		res, err = c.solveStage1Barrier(prog)
	case Stage1GD, Stage1SA, Stage1RS:
		res, err = c.solveStage1Heuristic(prog, opts)
	default:
		return res, fmt.Errorf("core: unknown stage-1 method %d", int(opts.Method))
	}
	if err != nil {
		return res, err
	}
	res.Runtime = time.Since(start)
	res.W, err = c.Net.WernerFromRates(res.Phi)
	if err != nil {
		return res, err
	}
	res.UQKD, err = c.Net.Utility(res.Phi, res.W)
	if err != nil {
		return res, err
	}
	return res, nil
}

// alphaShift is the constant −ln α_qkd by which the paper's objective (19)
// sits above the Stage-1 program's −ln U_qkd (qnet.Stage1).
func (c *Config) alphaShift() float64 { return -math.Log(c.AlphaQKD) }

// solveStage1Barrier is Algorithm 1: qnet.Stage1.Solve, the one Stage-1
// solver, with its objective −ln U_qkd shifted by −ln α_qkd.
func (c *Config) solveStage1Barrier(prog qnet.Stage1) (Stage1Result, error) {
	var res Stage1Result
	sol, err := prog.Solve()
	if err != nil {
		return res, fmt.Errorf("core: stage 1 barrier: %w", err)
	}
	shift := c.alphaShift()
	for i := range sol.Trace {
		sol.Trace[i] += shift
	}
	res.Phi, res.Objective, res.Iters, res.Trace, res.Converged = sol.Phi, -sol.LogUtility+shift, sol.NewtonIters, sol.Trace, sol.Converged
	return res, nil
}

func (c *Config) solveStage1Heuristic(prog qnet.Stage1, opts Stage1Options) (Stage1Result, error) {
	var res Stage1Result
	box, x0 := prog.Box(), prog.Start()
	shift := c.alphaShift()
	f := func(phi []float64) float64 { return prog.Objective(phi) + shift }

	switch opts.Method {
	case Stage1GD:
		iters := opts.GDIters
		if iters <= 0 {
			iters = 200000
		}
		penalized := func(phi []float64) float64 { return prog.Penalized(phi) + shift }
		r, err := optimize.GradientDescent(penalized, box, x0, optimize.GDOptions{LearningRate: 0.01, MaxIter: iters, Tol: 1e-12})
		if err != nil {
			return res, fmt.Errorf("core: stage 1 GD: %w", err)
		}
		res.Phi, res.Objective, res.Iters, res.Trace, res.Converged = r.X, r.Value, r.Iters, r.Values, r.Converged
	case Stage1SA:
		iters := opts.SAIters
		if iters <= 0 {
			iters = 150000
		}
		r, err := optimize.Anneal(f, box, x0, optimize.SAOptions{Iters: iters, Seed: opts.Seed, StepFrac: 0.05})
		if err != nil {
			return res, fmt.Errorf("core: stage 1 SA: %w", err)
		}
		res.Phi, res.Objective, res.Iters, res.Trace, res.Converged = r.X, r.Value, r.Iters, r.Values, r.Converged
	case Stage1RS:
		// The paper's RS baseline samples "uniformly from the feasible
		// space"; use the largest axis-aligned box that is feasible at its
		// worst corner, so every draw is admissible.
		r, err := optimize.RandomSearch(f, prog.FeasibleBox(), optimize.RSOptions{Samples: rsSamples, Seed: opts.Seed})
		if err != nil {
			return res, fmt.Errorf("core: stage 1 RS: %w", err)
		}
		res.Phi, res.Objective, res.Iters, res.Trace, res.Converged = r.X, r.Value, r.Iters, r.Values, r.Converged
	}
	return res, nil
}
