package qnet

import (
	"errors"
	"fmt"
	"math"

	"quhe/internal/optimize"
)

// ErrStage1Infeasible reports a Stage-1 program with no strictly feasible
// start: the minimum rates alone violate a link capacity (19a) or push a
// route's end-to-end Werner parameter to the SKF threshold (20c).
var ErrStage1Infeasible = errors.New("qnet: stage-1 program infeasible at the minimum rates")

// Stage1 is the paper's Stage-1 program P2 (19) over a network: choose the
// per-route entanglement rates φ minimizing −ln U_qkd (Eq. 6) with every
// link at its capacity-saturating Werner point w*(φ) of Eq. (18), subject to
//
//	(17a) φ_n ≥ φ_min,n
//	(19a) Σ_n a_ln·φ_n < β_l
//	(20c) ̟_n > WernerZeroSKF
//
// This file is the tree's only definition of that program — objective,
// penalized merit, boxes, start point — and of the projected-gradient
// solver over it. internal/core wraps it in the paper's configuration (the
// barrier method of Algorithm 1 and the Fig. 5 baselines minimize
// Objective − ln α_qkd); internal/control calls Solve on every replan.
type Stage1 struct {
	net    *Network
	phiMin []float64
}

// NewStage1 builds the program over net with per-route minimum rates phiMin.
func NewStage1(net *Network, phiMin []float64) (Stage1, error) {
	if len(phiMin) != len(net.routes) {
		return Stage1{}, fmt.Errorf("qnet: %d minimum rates for %d routes", len(phiMin), len(net.routes))
	}
	return Stage1{net: net, phiMin: append([]float64(nil), phiMin...)}, nil
}

// merit evaluates the program at phi in one pass: the objective −ln U_qkd
// and the total constraint violation, which is zero exactly on the feasible
// region (where obj is finite). It allocates nothing.
func (p Stage1) merit(phi []float64) (obj, viol float64) {
	net := p.net
	if len(phi) != len(net.routes) {
		return math.Inf(1), math.Inf(1)
	}
	for r, v := range phi {
		if math.IsNaN(v) {
			return math.Inf(1), math.Inf(1)
		}
		if v < p.phiMin[r] {
			viol += p.phiMin[r] - v
		}
	}
	for l, link := range net.links {
		load := 0.0
		for r := range phi {
			if net.uses[r][l] {
				load += phi[r]
			}
		}
		if load >= link.Beta {
			viol += load/link.Beta - 1 + 1e-6
		}
	}
	if viol > 0 {
		return math.Inf(1), viol
	}
	s := 0.0
	for r := range phi {
		wr := net.RouteWerner(r, phi)
		f := SecretKeyFraction(wr)
		if wr <= WernerZeroSKF || f <= 0 {
			viol += math.Max(WernerZeroSKF-wr, 0) + 1e-6
			continue
		}
		s += math.Log(phi[r]) + math.Log(f)
	}
	if viol > 0 {
		return math.Inf(1), viol
	}
	return -s, 0
}

// Objective is the P2 objective −ln U_qkd = −Σ_n [ln φ_n + ln F_skf(̟_n)]
// at rates phi, +Inf outside the feasible region (17a)/(19a)/(20c).
func (p Stage1) Objective(phi []float64) float64 {
	obj, _ := p.merit(phi)
	return obj
}

// Penalized is the finite-everywhere merit of the program: Objective inside
// the feasible region and a linear penalty on the violation outside it, so
// a gradient method over the bounding Box recovers from an infeasible step
// instead of meeting an infinite cliff.
func (p Stage1) Penalized(phi []float64) float64 {
	const (
		penaltyBase  = 1e3
		penaltyScale = 1e3
	)
	obj, viol := p.merit(phi)
	if viol > 0 {
		return penaltyBase + penaltyScale*viol
	}
	return obj
}

// Start is the program's strictly feasible start point when one exists:
// every rate slightly above its minimum.
func (p Stage1) Start() []float64 {
	x0 := make([]float64, len(p.phiMin))
	for i, lo := range p.phiMin {
		x0[i] = lo * 1.05
	}
	return x0
}

// Box bounds the feasible region for the bounded methods: [φ_min, the
// route's bottleneck capacity], the smallest β over the route's links (the
// rate a route could sustain with its bottleneck to itself). The optimum
// lies inside; most of the box does not satisfy (19a)/(20c).
func (p Stage1) Box() optimize.Box {
	hi := make([]float64, len(p.phiMin))
	for r := range hi {
		hi[r] = math.Inf(1)
		for l, link := range p.net.links {
			if p.net.uses[r][l] && link.Beta < hi[r] {
				hi[r] = link.Beta
			}
		}
		hi[r] = math.Max(hi[r], p.phiMin[r])
	}
	return optimize.Box{Lo: append([]float64(nil), p.phiMin...), Hi: hi}
}

// FeasibleBox returns [φ_min, φ_min + τ] with the largest uniform increment
// τ whose upper corner still satisfies every constraint. The constraints are
// monotone in each rate (loads grow, end-to-end Werner parameters shrink),
// so corner feasibility implies the whole box is feasible — every uniform
// sample from it is admissible.
func (p Stage1) FeasibleBox() optimize.Box {
	corner := func(tau float64) []float64 {
		phi := make([]float64, len(p.phiMin))
		for i, lo := range p.phiMin {
			phi[i] = lo + tau
		}
		return phi
	}
	feasible := func(tau float64) bool {
		return !math.IsInf(p.Objective(corner(tau)), 1)
	}
	lo, hi := 0.0, 1.0
	for feasible(hi) {
		lo = hi
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	tau := lo * 0.999 // stay strictly inside
	return optimize.Box{Lo: append([]float64(nil), p.phiMin...), Hi: corner(tau)}
}

// Stage1Solution is a solved rate allocation.
type Stage1Solution struct {
	// Phi is the rate allocation, W its Eq. (18) link Werner parameters.
	Phi, W []float64
	// LogUtility is ln U_qkd at (Phi, W): minus the minimized objective.
	LogUtility float64
	// Iters counts projected-gradient steps; Trace is the objective after
	// each; Converged reports that the last step moved φ by less than the
	// solver's tolerance.
	Iters     int
	Trace     []float64
	Converged bool
}

// Solve minimizes the program by projected gradient with backtracking on
// Penalized over Box from Start. The objective is convex in ln φ (Kar &
// Wehner) and the iterates stay in the feasible region once inside it, so
// the fixed point is the optimum the barrier method of Algorithm 1 reaches
// (TestLiveStage1MatchesBarrier pins the two). Time does not separate them:
// on SURFnet at control's φ_min both take ≈1.5 ms on a 2-core Xeon, the
// barrier in 21 Newton steps and this in 78 gradient steps. Allocation
// does: the barrier (core.Stage1Barrier) allocates 8,295 times (823 KB)
// per solve, this 249 times (14 KB), and the planner replans inside every
// op of the benchmark's churn workload, whose allocs_per_op is bounded at
// 2%. That is why this, not the barrier, is what the running planner
// calls; make the barrier allocation-lean before swapping them.
// It fails with ErrStage1Infeasible when Start is not feasible.
func (p Stage1) Solve() (Stage1Solution, error) {
	var sol Stage1Solution
	x0 := p.Start()
	if _, viol := p.merit(x0); viol > 0 {
		return sol, ErrStage1Infeasible
	}
	res, err := optimize.MinimizeProjGrad(p.Penalized, p.Box(), x0, optimize.PGOptions{MaxIter: 2000, Tol: 1e-10})
	if err != nil {
		return sol, fmt.Errorf("qnet: stage-1 projected gradient: %w", err)
	}
	w, err := p.net.WernerFromRates(res.X)
	if err != nil {
		return sol, err
	}
	return Stage1Solution{
		Phi: res.X, W: w, LogUtility: -res.Value,
		Iters: res.Iters, Trace: res.Values, Converged: res.Converged,
	}, nil
}
