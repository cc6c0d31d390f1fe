package core

import (
	"fmt"
	"time"

	"quhe/internal/costmodel"
	"quhe/internal/qnet"
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

// stage2Terms fills the Stage-2 program (22) at v: per client, the reward
// α_msl·ς_n·f_msl − α_e·E_cmp and the total delay of each λ in LambdaSet;
// Const carries α_qkd·U_qkd and the λ-independent energies scaled by −α_e.
func (c *Config) stage2Terms(v Variables) (qnet.Stage2, error) {
	t := qnet.Stage2{AlphaT: c.AlphaT}
	n := c.N()
	uqkd, err := c.Net.Utility(v.Phi, v.W)
	if err != nil {
		return t, err
	}
	t.Const = c.AlphaQKD * uqkd
	m := len(c.LambdaSet)
	t.Reward = make([][]float64, n)
	t.Delay = make([][]float64, n)
	for i := 0; i < n; i++ {
		// Fixed (λ-independent) energy: encryption + transmission.
		encE := costmodel.EncryptionEnergy(c.KappaClient[i], c.SECycles[i], v.FC[i])
		rate := c.Rate(i, v.P[i], v.B[i])
		trDelay := c.DTrBits[i] / rate
		trE := v.P[i] * trDelay
		t.Const -= c.AlphaE * (encE + trE)

		fixedDelay := costmodel.EncryptionDelay(c.SECycles[i], v.FC[i]) + trDelay
		t.Reward[i] = make([]float64, m)
		t.Delay[i] = make([]float64, m)
		for j, lam := range c.LambdaSet {
			sec := c.AlphaMSL * c.SecurityWeights[i] * costmodel.MinSecurityLevel(lam)
			cmpE := costmodel.ComputeEnergy(c.KappaServer, lam, c.DCmpTokens[i], c.TokensPerSample[i], v.FS[i])
			t.Reward[i][j] = sec - c.AlphaE*cmpE
			t.Delay[i][j] = fixedDelay + costmodel.ComputeDelay(lam, c.DCmpTokens[i], c.TokensPerSample[i], v.FS[i])
		}
	}
	return t, nil
}

// SolveStage2 runs Algorithm 2 (qnet.Stage2.Maximize, the solver the live
// planner runs over its routes) on the program at v, the other blocks fixed.
func (c *Config) SolveStage2(v Variables) (Stage2Result, error) {
	start := time.Now()
	var res Stage2Result
	prog, err := c.stage2Terms(v)
	if err != nil {
		return res, fmt.Errorf("core: stage 2: %w", err)
	}
	sol, err := prog.Maximize()
	if err != nil {
		return res, fmt.Errorf("core: stage 2: %w", err)
	}
	res.Lambda = make([]float64, len(sol.Assign))
	for i, j := range sol.Assign {
		res.Lambda[i] = c.LambdaSet[j]
	}
	res.TS2, res.Objective, res.Nodes, res.Trace = sol.MaxDelay, sol.Value, sol.Nodes, sol.Trace
	res.Runtime = time.Since(start)
	return res, nil
}
