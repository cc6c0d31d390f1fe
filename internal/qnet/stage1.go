package qnet

import (
	"errors"
	"fmt"
	"math"

	"quhe/internal/mathutil"
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
// penalized merit, boxes, start point, its convex log-rate form P3 — and
// of its one solver, Solve, the barrier method of Algorithm 1.
// internal/core wraps it in the paper's configuration (Algorithm 1 and the
// Fig. 5 baselines minimize Objective − ln α_qkd); control.New calls Solve
// once.
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
	// NewtonIters counts the barrier's Newton steps; Trace is the
	// objective −ln U_qkd after each (Fig. 4(a)); Converged reports that
	// the duality gap fell below the solve's tolerance.
	NewtonIters int
	Trace       []float64
	Converged   bool
}

// Solve runs Algorithm 1: the log-barrier interior-point method
// (optimize.MinimizeBarrier) over P3, the program in log-rates ϕ = ln φ,
// where it is convex (Kar & Wehner), from Start to a duality gap of 1e-7.
// It is the one Stage-1 solver: the running planner (control.New) and the
// reproduction (core.SolveStage1) both call it. Each call owns its
// scratch, so concurrent calls on one Stage1 are safe, and its Newton steps
// allocate nothing: on SURFnet at control's φ_min = 1e-2 a solve takes 21
// Newton steps, 114 allocations (6 KB) and ≈0.5 ms on a 2-core Xeon
// 2.1 GHz (TestStage1SolveAllocs bounds the count). It fails with
// ErrStage1Infeasible when Start is not strictly feasible.
func (p Stage1) Solve() (Stage1Solution, error) {
	var sol Stage1Solution
	f0, ineqs, x0 := newP3(p).statement()
	res, err := optimize.MinimizeBarrier(f0, ineqs, x0, optimize.BarrierOptions{Tol: 1e-7})
	if errors.Is(err, optimize.ErrInfeasibleStart) {
		return sol, ErrStage1Infeasible
	}
	if err != nil {
		return sol, fmt.Errorf("qnet: stage-1 barrier: %w", err)
	}
	phi := make([]float64, len(res.X))
	expInto(phi, res.X)
	w, err := p.net.WernerFromRates(phi)
	if err != nil {
		return sol, err
	}
	return Stage1Solution{
		Phi: phi, W: w, LogUtility: -res.Value,
		NewtonIters: res.NewtonIters, Trace: res.Values, Converged: res.Converged,
	}, nil
}

// p3 states the program for the barrier as P3 (20) over ϕ = ln φ: the
// objective −Σ_n [ϕ_n + ln F_skf(̟_n)], the constraints (20a)–(20c), each
// with exact derivatives, and a strictly feasible start. Its slices are the
// scratch the derivatives write through, so a p3 serves one solve.
type p3 struct {
	Stage1
	phi, gw, v []float64   // rates e^ϕ, a route's ∇̟, one link's a_lq φ_q c_l
	hw         [][]float64 // a route's ∇²̟
}

func newP3(p Stage1) *p3 {
	n := len(p.phiMin)
	return &p3{Stage1: p, phi: make([]float64, n), gw: make([]float64, n), v: make([]float64, n), hw: mathutil.Square(n)}
}

// statement builds the barrier's objective, constraints and start point.
func (p *p3) statement() (f0 optimize.Smooth, ineqs []optimize.Smooth, x0 []float64) {
	n := len(p.phiMin)
	// With F' = log2((1+w)/(1−w)) and F'' = 2/((1−w²) ln 2), each route
	// adds −(F'/F)∇̟ to the gradient and −[(F''/F − (F'/F)²)∇̟∇̟ᵀ +
	// (F'/F)∇²̟] to the Hessian; the −ϕ_n terms add −1 to the gradient.
	skf := func(w float64) (d1, d2 float64) {
		f := SecretKeyFraction(w)
		d1 = math.Log2((1+w)/(1-w)) / f
		return d1, 2/((1-w*w)*math.Ln2)/f - d1*d1
	}
	f0 = optimize.Smooth{
		F: func(x []float64) float64 { return p.Objective(p.rates(x)) },
		Grad: func(x, g []float64) {
			phi := p.rates(x)
			for i := range g {
				g[i] = -1
			}
			for r := range phi {
				d1, _ := skf(p.werner(r, phi, false))
				mathutil.AXPYInPlace(-d1, p.gw, g)
			}
		},
		Hess: func(x []float64, wt float64, h [][]float64) {
			phi := p.rates(x)
			for r := range phi {
				d1, d2 := skf(p.werner(r, phi, true))
				for i, row := range h {
					for j := range row {
						row[j] -= wt * (d2*p.gw[i]*p.gw[j] + d1*p.hw[i][j])
					}
				}
			}
		},
	}

	net := p.net
	ineqs = make([]optimize.Smooth, 0, 2*n+len(net.links))
	// (20a): ϕ_n ≥ ln φ_min — linear in ϕ-space.
	for i, lo := range p.phiMin {
		ineqs = append(ineqs, optimize.BoundIneq(i, -1, math.Log(lo)))
	}
	// (20b): Σ a_ln e^{ϕ_n} < β_l for every used link, normalized by β_l so
	// all barrier terms share a scale. Its gradient is a_ln e^{ϕ_n}/β_l,
	// which is also its (diagonal) Hessian.
	for l, link := range net.links {
		used := false
		for r := range p.phiMin {
			used = used || net.uses[r][l]
		}
		if !used {
			continue
		}
		beta := link.Beta
		ineqs = append(ineqs, optimize.Smooth{
			F: func(x []float64) float64 {
				sum := 0.0
				for r, v := range x {
					if net.uses[r][l] {
						sum += math.Exp(v) / beta
					}
				}
				return sum - 1
			},
			Grad: func(x, g []float64) {
				for r, v := range x {
					g[r] = 0
					if net.uses[r][l] {
						g[r] = math.Exp(v) / beta
					}
				}
			},
			Hess: func(x []float64, wt float64, h [][]float64) {
				for r, v := range x {
					if net.uses[r][l] {
						h[r][r] += wt * math.Exp(v) / beta
					}
				}
			},
		})
	}
	// (20c): ̟_n > WernerZeroSKF for every route. A small margin keeps the
	// objective's own log term finite strictly inside the region.
	for r := range p.phiMin {
		ineqs = append(ineqs, optimize.Smooth{
			F: func(x []float64) float64 {
				return WernerZeroSKF*(1+1e-9) - net.RouteWerner(r, p.rates(x))
			},
			Grad: func(x, g []float64) {
				p.werner(r, p.rates(x), false)
				for i, v := range p.gw {
					g[i] = -v
				}
			},
			Hess: func(x []float64, wt float64, h [][]float64) {
				p.werner(r, p.rates(x), true)
				for i, row := range h {
					mathutil.AXPYInPlace(-wt, p.hw[i], row)
				}
			},
		})
	}

	// Strictly feasible start: φ slightly above the minimum.
	x0 = p.Start()
	for i, v := range x0 {
		x0[i] = math.Log(v)
	}
	return f0, ineqs, x0
}

// rates writes e^x into the scratch rates and returns them.
func (p *p3) rates(x []float64) []float64 {
	expInto(p.phi, x)
	return p.phi
}

// werner returns route r's end-to-end Werner parameter ̟_r at rates phi,
// writing its gradient in ϕ = ln φ into gw and, when hess is set, its
// Hessian into hw. With u_l = Σ_q a_lq φ_q/β_l the load of link l and
// c_l = 1/(β_l(1 − u_l)), ln ̟_r = Σ_{l∈r} ln(1 − u_l) has
//
//	∂ ln ̟_r/∂ϕ_q = −Σ_{l∈r} a_lq φ_q c_l
//	∂² ln ̟_r/∂ϕ_q∂ϕ_s = −Σ_{l∈r} a_lq φ_q c_l (δ_qs + a_ls φ_s c_l)
//
// and ∇̟_r = ̟_r ∇ln ̟_r, ∇²̟_r = ̟_r (∇² ln ̟_r + ∇ln ̟_r ∇ln ̟_rᵀ).
func (p *p3) werner(r int, phi []float64, hess bool) float64 {
	net, g, h, v := p.net, p.gw, p.hw, p.v
	clear(g)
	if hess {
		for _, row := range h {
			clear(row)
		}
	}
	w := 1.0
	for l, link := range net.links {
		if !net.uses[r][l] {
			continue
		}
		load := 0.0
		for q := range phi {
			if net.uses[q][l] {
				load += phi[q]
			}
		}
		w *= 1 - load/link.Beta
		cl := 1 / (link.Beta - load)
		for q := range phi {
			v[q] = 0
			if net.uses[q][l] {
				v[q] = phi[q] * cl
			}
		}
		for q, vq := range v {
			g[q] -= vq
			if !hess {
				continue
			}
			h[q][q] -= vq
			for s, vs := range v {
				h[q][s] -= vq * vs
			}
		}
	}
	if hess {
		for q := range g {
			for s := range g {
				h[q][s] = w * (h[q][s] + g[q]*g[s])
			}
		}
	}
	for q := range g {
		g[q] *= w
	}
	return w
}

// expInto writes e^x elementwise into phi: the rates of log-rates x.
func expInto(phi, x []float64) {
	for i, v := range x {
		phi[i] = math.Exp(v)
	}
}
