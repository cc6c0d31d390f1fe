package core

import (
	"fmt"
	"math"
	"time"

	"quhe/internal/costmodel"
	"quhe/internal/optimize"
)

// Stage2Result reports a Stage-2 solve (Algorithm 2).
type Stage2Result struct {
	// Lambda is the optimal polynomial degree per client (values from
	// Config.LambdaSet).
	Lambda []float64
	// TS2 is T*_s2 of Eq. (23): the max per-client delay at λ*.
	TS2 float64
	// Objective is F*_s2: the full P1 objective (22) at λ* with the other
	// blocks fixed.
	Objective float64
	// Nodes counts the branch-and-bound subproblems popped.
	Nodes int
	// Trace is the per-node convergence curve for Fig. 4(b): the upper
	// bound of each popped subproblem after the root, non-increasing onto
	// the optimum (the certificate mirror of the paper's rising incumbent).
	Trace []float64
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
}

// stage2Terms precomputes everything Stage 2 needs: per-client fixed delay
// and energy (independent of λ) and per-choice delay/energy/security tables.
type stage2Terms struct {
	constPart float64     // α_qkd·U_qkd + fixed energies scaled by −α_e
	reward    [][]float64 // reward[n][j]: α_msl·ς_n·f_msl − α_e·E_cmp for choice j
	delay     [][]float64 // delay[n][j]: total client delay for choice j
}

func (c *Config) stage2Terms(v Variables) (stage2Terms, error) {
	var t stage2Terms
	n := c.N()
	uqkd, err := c.Net.Utility(v.Phi, v.W)
	if err != nil {
		return t, err
	}
	t.constPart = c.AlphaQKD * uqkd
	m := len(c.LambdaSet)
	t.reward = make([][]float64, n)
	t.delay = make([][]float64, n)
	for i := 0; i < n; i++ {
		// Fixed (λ-independent) energy: encryption + transmission.
		encE := costmodel.EncryptionEnergy(c.KappaClient[i], c.SECycles[i], v.FC[i])
		rate := c.Rate(i, v.P[i], v.B[i])
		trDelay := c.DTrBits[i] / rate
		trE := v.P[i] * trDelay
		t.constPart -= c.AlphaE * (encE + trE)

		fixedDelay := costmodel.EncryptionDelay(c.SECycles[i], v.FC[i]) + trDelay
		t.reward[i] = make([]float64, m)
		t.delay[i] = make([]float64, m)
		for j, lam := range c.LambdaSet {
			sec := c.AlphaMSL * c.SecurityWeights[i] * costmodel.MinSecurityLevel(lam)
			cmpE := costmodel.ComputeEnergy(c.KappaServer, lam, c.DCmpTokens[i], c.TokensPerSample[i], v.FS[i])
			t.reward[i][j] = sec - c.AlphaE*cmpE
			t.delay[i][j] = fixedDelay + costmodel.ComputeDelay(lam, c.DCmpTokens[i], c.TokensPerSample[i], v.FS[i])
		}
	}
	return t, nil
}

// value computes F_s2 (22) for a complete assignment of LambdaSet indices.
func (t stage2Terms) value(alphaT float64, assign []int) float64 {
	s := t.constPart
	dmax := 0.0
	for i, j := range assign {
		s += t.reward[i][j]
		if t.delay[i][j] > dmax {
			dmax = t.delay[i][j]
		}
	}
	return s - alphaT*dmax
}

// SolveStage2 runs Algorithm 2: branch & bound over λ with the other blocks
// fixed at v.
func (c *Config) SolveStage2(v Variables) (Stage2Result, error) {
	start := time.Now()
	var res Stage2Result
	terms, err := c.stage2Terms(v)
	if err != nil {
		return res, fmt.Errorf("core: stage 2: %w", err)
	}
	n := c.N()
	m := len(c.LambdaSet)
	// Optimistic bound: best per-client rewards for unassigned clients;
	// the −α_t·max-delay term is bounded by the smallest achievable
	// maximum (assigned delays are committed, unassigned take their
	// per-client minimum delay).
	upper := func(partial []int, assigned int) float64 {
		s := terms.constPart
		dmax := 0.0
		for i := 0; i < assigned; i++ {
			s += terms.reward[i][partial[i]]
			if d := terms.delay[i][partial[i]]; d > dmax {
				dmax = d
			}
		}
		for i := assigned; i < n; i++ {
			best := math.Inf(-1)
			minDelay := math.Inf(1)
			for j := 0; j < m; j++ {
				if terms.reward[i][j] > best {
					best = terms.reward[i][j]
				}
				if terms.delay[i][j] < minDelay {
					minDelay = terms.delay[i][j]
				}
			}
			s += best
			if minDelay > dmax {
				dmax = minDelay
			}
		}
		return s - c.AlphaT*dmax
	}
	bres, err := optimize.MaximizeBnB(optimize.BnBProblem{
		NumVars:    n,
		NumChoices: m,
		Value:      func(assign []int) float64 { return terms.value(c.AlphaT, assign) },
		UpperBound: upper,
	})
	if err != nil {
		return res, fmt.Errorf("core: stage 2 branch and bound: %w", err)
	}
	assign := bres.Assign
	res.Objective = bres.Value
	res.Nodes = bres.Nodes
	res.Trace = bres.Bounds
	// The root's +Inf bound is a sentinel, not data.
	if len(res.Trace) > 0 && math.IsInf(res.Trace[0], 1) {
		res.Trace = res.Trace[1:]
	}

	res.Lambda = make([]float64, n)
	res.TS2 = 0
	for i, j := range assign {
		res.Lambda[i] = c.LambdaSet[j]
		if terms.delay[i][j] > res.TS2 {
			res.TS2 = terms.delay[i][j]
		}
	}
	res.Runtime = time.Since(start)
	return res, nil
}
