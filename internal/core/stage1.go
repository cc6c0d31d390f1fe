package core

import (
	"fmt"
	"math"
	"time"

	"quhe/internal/mathutil"
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
	// Stage1ProjGrad is projected gradient descent with line search on the
	// penalized rate objective (between the barrier method and the
	// fixed-step GD baseline in sophistication): qnet.Stage1.Solve, the
	// solver the live planner runs, timed here beside the paper's.
	Stage1ProjGrad
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
	case Stage1ProjGrad:
		return "ProjGrad"
	default:
		return fmt.Sprintf("Stage1Method(%d)", int(m))
	}
}

// Stage1Options tunes the Stage-1 solvers. The zero value uses defaults.
type Stage1Options struct {
	// Method selects the solver; default Stage1Barrier.
	Method Stage1Method
	// Seed seeds the stochastic baselines (SA, RS); 0 means fixed default.
	Seed int64
	// GDIters, SAIters, RSSamples override baseline budgets when positive.
	GDIters   int
	SAIters   int
	RSSamples int
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
	case Stage1GD, Stage1SA, Stage1RS, Stage1ProjGrad:
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

func (c *Config) solveStage1Barrier(prog qnet.Stage1) (Stage1Result, error) {
	var res Stage1Result
	f0, ineqs, x0 := c.stage1Barrier(prog)
	if f0.F(x0) == math.Inf(1) {
		return res, fmt.Errorf("core: stage 1 start infeasible (PhiMin too aggressive)")
	}
	bres, err := optimize.MinimizeBarrier(f0, ineqs, x0, optimize.BarrierOptions{Tol: 1e-7})
	if err != nil {
		return res, fmt.Errorf("core: stage 1 barrier: %w", err)
	}
	res.Phi = expAll(bres.X)
	res.Objective = bres.Value
	res.Iters = bres.NewtonIters
	res.Trace = bres.Values
	res.Converged = bres.Converged
	return res, nil
}

// stage1Barrier states P3 (20) over ϕ = ln φ, where it is convex (Kar &
// Wehner): the objective −Σ_n [ϕ_n + ln F_skf(̟_n)] − ln α_qkd, the
// constraints (20a)–(20c), each with exact derivatives, and a strictly
// feasible start.
func (c *Config) stage1Barrier(prog qnet.Stage1) (f0 optimize.Smooth, ineqs []optimize.Smooth, x0 []float64) {
	n := c.N()
	shift := c.alphaShift()
	// With F' = log2((1+w)/(1−w)) and F'' = 2/((1−w²) ln 2), each route
	// adds −(F'/F)∇̟ to the gradient and −[(F''/F − (F'/F)²)∇̟∇̟ᵀ +
	// (F'/F)∇²̟] to the Hessian; the −ϕ_n terms add −1 to the gradient.
	skf := func(w float64) (d1, d2 float64) {
		f := qnet.SecretKeyFraction(w)
		d1 = math.Log2((1+w)/(1-w)) / f
		return d1, 2/((1-w*w)*math.Ln2)/f - d1*d1
	}
	f0 = optimize.Smooth{
		F: func(x []float64) float64 { return prog.Objective(expAll(x)) + shift },
		Grad: func(x []float64) []float64 {
			phi := expAll(x)
			g := mathutil.Fill(n, -1)
			for r := 0; r < n; r++ {
				w, gw, _ := c.werner(r, phi)
				d1, _ := skf(w)
				mathutil.AXPYInPlace(-d1, gw, g)
			}
			return g
		},
		Hess: func(x []float64) [][]float64 {
			phi := expAll(x)
			h := mathutil.Square(n)
			for r := 0; r < n; r++ {
				w, gw, hw := c.werner(r, phi)
				d1, d2 := skf(w)
				for i := range h {
					for j := range h[i] {
						h[i][j] -= d2*gw[i]*gw[j] + d1*hw[i][j]
					}
				}
			}
			return h
		},
	}

	// (20a): ϕ_n ≥ ln φ_min — linear in ϕ-space.
	for i := 0; i < n; i++ {
		ineqs = append(ineqs, optimize.BoundIneq(n, i, -1, math.Log(c.PhiMin[i])))
	}
	// (20b): Σ a_ln e^{ϕ_n} < β_l for every used link, normalized by β_l so
	// all barrier terms share a scale. Its gradient is a_ln e^{ϕ_n}/β_l,
	// which is also its (diagonal) Hessian.
	for l := 0; l < c.Net.NumLinks(); l++ {
		used := false
		for r := 0; r < n; r++ {
			if c.Net.Uses(r, l) {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		beta := c.Net.Link(l).Beta
		grad := func(x []float64) []float64 {
			g := make([]float64, n)
			for r := 0; r < n; r++ {
				if c.Net.Uses(r, l) {
					g[r] = math.Exp(x[r]) / beta
				}
			}
			return g
		}
		ineqs = append(ineqs, optimize.Smooth{
			F:    func(x []float64) float64 { return mathutil.Sum(grad(x)) - 1 },
			Grad: grad,
			Hess: func(x []float64) [][]float64 {
				h := mathutil.Square(n)
				for r, v := range grad(x) {
					h[r][r] = v
				}
				return h
			},
		})
	}
	// (20c): ̟_n > WernerZeroSKF for every route. A small margin keeps the
	// objective's own log term finite strictly inside the region.
	for r := 0; r < n; r++ {
		ineqs = append(ineqs, optimize.Smooth{
			F: func(x []float64) float64 {
				return qnet.WernerZeroSKF*(1+1e-9) - c.Net.RouteWerner(r, expAll(x))
			},
			Grad: func(x []float64) []float64 {
				_, g, _ := c.werner(r, expAll(x))
				return mathutil.Scale(-1, g)
			},
			Hess: func(x []float64) [][]float64 {
				_, _, h := c.werner(r, expAll(x))
				for _, row := range h {
					for j := range row {
						row[j] = -row[j]
					}
				}
				return h
			},
		})
	}

	// Strictly feasible start: φ slightly above the minimum.
	x0 = make([]float64, n)
	for i := range x0 {
		x0[i] = math.Log(c.PhiMin[i] * 1.05)
	}
	return f0, ineqs, x0
}

// werner returns route r's end-to-end Werner parameter ̟_r at rates phi
// with its gradient and Hessian in ϕ = ln φ. With u_l = Σ_q a_lq φ_q/β_l
// the load of link l and c_l = 1/(β_l(1 − u_l)), ln ̟_r = Σ_{l∈r} ln(1 − u_l)
// has
//
//	∂ ln ̟_r/∂ϕ_q = −Σ_{l∈r} a_lq φ_q c_l
//	∂² ln ̟_r/∂ϕ_q∂ϕ_s = −Σ_{l∈r} a_lq φ_q c_l (δ_qs + a_ls φ_s c_l)
//
// and ∇̟_r = ̟_r ∇ln ̟_r, ∇²̟_r = ̟_r (∇² ln ̟_r + ∇ln ̟_r ∇ln ̟_rᵀ).
func (c *Config) werner(r int, phi []float64) (w float64, g []float64, h [][]float64) {
	n := len(phi)
	g = make([]float64, n)
	h = mathutil.Square(n)
	v := make([]float64, n) // a_lq φ_q c_l for the current link
	w = 1
	for l := 0; l < c.Net.NumLinks(); l++ {
		if !c.Net.Uses(r, l) {
			continue
		}
		beta := c.Net.Link(l).Beta
		load := 0.0
		for q := range phi {
			if c.Net.Uses(q, l) {
				load += phi[q]
			}
		}
		w *= 1 - load/beta
		cl := 1 / (beta - load)
		for q := range phi {
			v[q] = 0
			if c.Net.Uses(q, l) {
				v[q] = phi[q] * cl
			}
		}
		for q, vq := range v {
			g[q] -= vq
			h[q][q] -= vq
			for s, vs := range v {
				h[q][s] -= vq * vs
			}
		}
	}
	for q := range g {
		for s := range g {
			h[q][s] = w * (h[q][s] + g[q]*g[s])
		}
	}
	for q := range g {
		g[q] *= w
	}
	return w, g, h
}

// expAll returns e^x elementwise: the rates φ of log-rates ϕ.
func expAll(x []float64) []float64 {
	phi := make([]float64, len(x))
	for i, v := range x {
		phi[i] = math.Exp(v)
	}
	return phi
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
	case Stage1ProjGrad:
		// The solver the running planner calls (control.Controller.Replan).
		sol, err := prog.Solve()
		if err != nil {
			return res, fmt.Errorf("core: stage 1 projected gradient: %w", err)
		}
		for i := range sol.Trace {
			sol.Trace[i] += shift
		}
		res.Phi, res.Objective, res.Iters, res.Trace, res.Converged = sol.Phi, -sol.LogUtility+shift, sol.Iters, sol.Trace, sol.Converged
	case Stage1RS:
		samples := opts.RSSamples
		if samples <= 0 {
			samples = 10000 // the paper's 10⁴ uniform draws
		}
		// The paper's RS baseline samples "uniformly from the feasible
		// space"; use the largest axis-aligned box that is feasible at its
		// worst corner, so every draw is admissible.
		r, err := optimize.RandomSearch(f, prog.FeasibleBox(), optimize.RSOptions{Samples: samples, Seed: opts.Seed})
		if err != nil {
			return res, fmt.Errorf("core: stage 1 RS: %w", err)
		}
		res.Phi, res.Objective, res.Iters, res.Trace, res.Converged = r.X, r.Value, r.Iters, r.Values, r.Converged
	}
	return res, nil
}
