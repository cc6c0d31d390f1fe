package experiments

import (
	"fmt"

	"quhe/internal/core"
)

// Fig4Result carries the per-stage convergence traces of Fig. 4.
type Fig4Result struct {
	// Stage1 is the P2 objective after each interior-point Newton step
	// (Fig. 4(a), decreasing).
	Stage1 []float64
	// Stage2 is the branch-and-bound certificate curve (Fig. 4(b)): the
	// popped upper bound per node expansion, non-increasing onto the
	// optimum (the mirror image of the paper's rising incumbent plot).
	Stage2 []float64
	// Stage3POBJ is the primal objective of the Stage-3 inner solver per
	// Newton step (Fig. 4(c)).
	Stage3POBJ []float64
	// Stage3Gap is the duality gap per centering step (Fig. 4(d),
	// decreasing to ~1e-5 and below).
	Stage3Gap []float64
	// Iterations per stage, mirroring the counts the paper quotes
	// (12 / 26 / 34 in their run).
	Stage1Iters, Stage2Iters, Stage3Iters int
}

// Fig4 reruns one QuHE pass stage by stage, capturing every trace the paper
// plots in Fig. 4.
func Fig4(cfg *core.Config) (Fig4Result, error) {
	var res Fig4Result

	s1, err := cfg.SolveStage1(core.Stage1Options{})
	if err != nil {
		return res, fmt.Errorf("experiments: fig4 stage 1: %w", err)
	}
	res.Stage1 = s1.Trace
	res.Stage1Iters = s1.Iters

	v, err := cfg.DefaultVariables()
	if err != nil {
		return res, err
	}
	v.Phi, v.W = s1.Phi, s1.W

	s2, err := cfg.SolveStage2(v)
	if err != nil {
		return res, fmt.Errorf("experiments: fig4 stage 2: %w", err)
	}
	res.Stage2 = s2.Trace
	res.Stage2Iters = s2.Nodes
	v.Lambda = s2.Lambda

	s3, err := cfg.SolveStage3(v)
	if err != nil {
		return res, fmt.Errorf("experiments: fig4 stage 3: %w", err)
	}
	res.Stage3POBJ = s3.POBJ
	res.Stage3Gap = s3.Gaps
	res.Stage3Iters = s3.NewtonIters
	return res, nil
}
