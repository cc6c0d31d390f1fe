package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"quhe/internal/costmodel"
	"quhe/internal/mathutil"
	"quhe/internal/optimize"
)

// Algorithm 3's outer loop: it stops when the P5 cost moves by less than
// stage3Tol (relative), or after stage3MaxOuter z-updates. The inner
// barrier is solved to a duality gap of ~1e-6, so the outer objective
// carries noise of that order; a tighter outer tolerance would never be met.
const (
	stage3Tol      = 1e-5
	stage3MaxOuter = 30
)

// Stage3Result reports a Stage-3 solve (Algorithm 3).
type Stage3Result struct {
	// P, B, FC, FS are the optimized transmit powers, bandwidths, client
	// clocks and server shares; T is the optimized delay bound.
	P, B, FC, FS []float64
	T            float64
	// Objective is the minimized P5 cost α_e·E_total + α_t·T (the paper
	// maximizes its negation).
	Objective float64
	// Outer counts fractional-programming iterations; NewtonIters the
	// total inner Newton steps.
	Outer       int
	NewtonIters int
	// POBJ is the primal objective after every Newton step across all
	// inner solves (Fig. 4(c)); Gaps is the duality-gap trace of the
	// first (cold-started) inner solve (Fig. 4(d)) — later re-solves are
	// warm-started and carry no meaningful gap trajectory.
	POBJ []float64
	Gaps []float64
	// Converged reports outer-loop convergence within stage3MaxOuter.
	Converged bool
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
}

// stage3Space fixes the variable layout and scaling of the Stage-3 program.
// All solver-visible quantities are O(1): powers are divided by p_max,
// bandwidths by B_total/N, clocks by their caps, and T by a delay scale
// taken from the starting point.
type stage3Space struct {
	c      *Config
	n      int
	cycles []float64 // C_n = server cycles for client n at the fixed λ
	tScale float64
}

func (s stage3Space) dim() int { return 4*s.n + 1 }

func (s stage3Space) unpack(x []float64) (p, b, fc, fs []float64, t float64) {
	n := s.n
	p = make([]float64, n)
	b = make([]float64, n)
	fc = make([]float64, n)
	fs = make([]float64, n)
	for i := 0; i < n; i++ {
		p[i] = x[i] * s.c.PMax[i]
		b[i] = x[n+i] * s.c.BTotal / float64(n)
		fc[i] = x[2*n+i] * s.c.FCMax[i]
		fs[i] = x[3*n+i] * s.c.FSTotal / float64(n)
	}
	t = x[4*n] * s.tScale
	return p, b, fc, fs, t
}

func (s stage3Space) pack(p, b, fc, fs []float64, t float64) []float64 {
	n := s.n
	x := make([]float64, s.dim())
	for i := 0; i < n; i++ {
		x[i] = p[i] / s.c.PMax[i]
		x[n+i] = b[i] * float64(n) / s.c.BTotal
		x[2*n+i] = fc[i] / s.c.FCMax[i]
		x[3*n+i] = fs[i] * float64(n) / s.c.FSTotal
	}
	x[4*n] = t / s.tScale
	return x
}

// clientPoint is client i's resources at a scaled point x, the scales
// that map its scaled power and clocks to them (∂p/∂p̃ and so on), and the
// Shannon rate r(p, b) with its partials in the scaled power and bandwidth.
type clientPoint struct {
	p, b, fc, fs             float64
	dp, dfc, dfs             float64
	r, rp, rb, rpp, rpb, rbb float64
}

// client evaluates client i at the scaled point x. With a = g/N0 and
// snr = a·p/b, r = b·log2(1 + snr) has
//
//	r_p = a/((1+snr) ln 2)            r_b = log2(1+snr) − snr/((1+snr) ln 2)
//	r_pp = −a²/(b(1+snr)² ln 2)       r_pb = a·snr/(b(1+snr)² ln 2)
//	r_bb = −snr²/(b(1+snr)² ln 2)
//
// each scaled by the chain rule. The partials are meaningful only inside
// the domain p, b > 0.
func (s stage3Space) client(x []float64, i int) clientPoint {
	c, n := s.c, s.n
	k := clientPoint{
		p:   x[i] * c.PMax[i],
		b:   x[n+i] * c.BTotal / float64(n),
		fc:  x[2*n+i] * c.FCMax[i],
		fs:  x[3*n+i] * c.FSTotal / float64(n),
		dp:  c.PMax[i],
		dfc: c.FCMax[i],
		dfs: c.FSTotal / float64(n),
	}
	db := c.BTotal / float64(n)
	k.r = c.Rate(i, k.p, k.b)
	a := c.Gains[i] / c.NoisePSD
	snr := a * k.p / k.b
	q := 1 / ((1 + snr) * math.Ln2)
	w := q / ((1 + snr) * k.b)
	k.rp = a * q * k.dp
	k.rb = (math.Log1p(snr)/math.Ln2 - snr*q) * db
	k.rpp = -a * a * w * k.dp * k.dp
	k.rpb = a * snr * w * k.dp * db
	k.rbb = -snr * snr * w * db * db
	return k
}

// rateTerm is the chain rule for a term φ(r) of the rate, given its first
// and second derivatives d1 and d2 in r: the term's gradient and Hessian in
// the scaled (p̃, b̃).
func (k clientPoint) rateTerm(d1, d2 float64) (gp, gb, hpp, hpb, hbb float64) {
	return d1 * k.rp, d1 * k.rb,
		d2*k.rp*k.rp + d1*k.rpp, d2*k.rp*k.rb + d1*k.rpb, d2*k.rb*k.rb + d1*k.rbb
}

// delay returns client i's end-to-end delay at the scaled point x.
func (s stage3Space) delay(x []float64, i int) float64 {
	k := s.client(x, i)
	if k.r <= 0 || k.fc <= 0 || k.fs <= 0 {
		return math.Inf(1)
	}
	return s.c.SECycles[i]/k.fc + s.c.DTrBits[i]/k.r + s.cycles[i]/k.fs
}

// SolveStage3 runs Algorithm 3: alternating quadratic-transform updates
// (Eq. 25) and inner barrier solves of the convexified problem P6 (Eq. 28),
// with φ, w, λ fixed at v.
func (c *Config) SolveStage3(v Variables) (Stage3Result, error) {
	start := time.Now()
	var res Stage3Result
	n := c.N()
	if len(v.Lambda) != n {
		return res, fmt.Errorf("core: stage 3 needs %d lambdas, got %d", n, len(v.Lambda))
	}

	space := stage3Space{c: c, n: n, cycles: make([]float64, n)}
	for i := 0; i < n; i++ {
		space.cycles[i] = costmodel.TotalServerCycles(v.Lambda[i], c.DCmpTokens[i], c.TokensPerSample[i])
	}

	// Start from v's resource block, pulled strictly inside the box.
	p := mathutil.Clone(v.P)
	b := mathutil.Clone(v.B)
	fc := mathutil.Clone(v.FC)
	fs := mathutil.Clone(v.FS)
	const margin = 1e-3
	for i := 0; i < n; i++ {
		p[i] = mathutil.Clamp(p[i], margin*c.PMax[i], (1-margin)*c.PMax[i])
		b[i] = mathutil.Clamp(b[i], margin*c.BTotal/float64(n), (1-margin)*c.BTotal/float64(n))
		fc[i] = mathutil.Clamp(fc[i], margin*c.FCMax[i], (1-margin)*c.FCMax[i])
		fs[i] = mathutil.Clamp(fs[i], margin*c.FSTotal/float64(n), (1-margin)*c.FSTotal/float64(n))
	}
	// Delay scale and a strictly feasible T.
	maxDelay := 0.0
	for i := 0; i < n; i++ {
		if d := c.ClientDelay(i, v.Lambda[i], p[i], b[i], fc[i], fs[i]); d > maxDelay {
			maxDelay = d
		}
	}
	if math.IsInf(maxDelay, 1) || maxDelay <= 0 {
		return res, errors.New("core: stage 3 start has infinite delay")
	}
	space.tScale = maxDelay
	t := 1.5 * maxDelay

	x := space.pack(p, b, fc, fs, t)
	ineqs := space.constraints()

	z := make([]float64, n)
	prevObj := math.Inf(1)
	for outer := 0; outer < stage3MaxOuter; outer++ {
		res.Outer++
		// Quadratic-transform update (Eq. 25): z_n = 1/(2 p_n d_n r_n).
		pc, bc, _, _, _ := space.unpack(x)
		for i := 0; i < n; i++ {
			rate := c.Rate(i, pc[i], bc[i])
			z[i] = 1 / (2 * pc[i] * c.DTrBits[i] * rate)
		}
		f0 := space.objective(z)

		// Re-center strictly inside the feasible region: the previous
		// solution may sit numerically on its active constraints.
		x = space.strictify(x)

		// Warm start: after the first solve, x is near-optimal for the
		// barely-changed z, so skip the early centering phases.
		var bopts optimize.BarrierOptions
		if outer > 0 {
			bopts.T0 = 1e4
		}
		bres, err := optimize.MinimizeBarrier(f0, ineqs, x, bopts)
		if err != nil {
			return res, fmt.Errorf("core: stage 3 outer %d: %w", outer, err)
		}
		x = bres.X
		res.NewtonIters += bres.NewtonIters
		res.POBJ = append(res.POBJ, bres.Values...)
		if outer == 0 {
			res.Gaps = append(res.Gaps, bres.Gaps...)
		}

		// True (untransformed) P5 objective for convergence checking.
		obj := space.trueObjective(x)
		if math.Abs(prevObj-obj) < stage3Tol*(1+math.Abs(obj)) {
			res.Converged = true
			prevObj = obj
			break
		}
		prevObj = obj
	}

	res.P, res.B, res.FC, res.FS, res.T = space.unpack(x)
	res.Objective = prevObj
	res.Runtime = time.Since(start)
	return res, nil
}

// objective builds the convexified P6 cost (Eq. 28) for fixed z:
//
//	α_e Σ [κ_c f_se f_c² + κ_s C_n f_s² + (p d)² z + 1/(4 r² z)] + α_t T
//
// with its exact derivatives. Each client's terms touch only its own four
// coordinates, and T enters linearly, so the Hessian is block diagonal in
// 4×4 blocks.
func (s stage3Space) objective(z []float64) optimize.Smooth {
	c := s.c
	n := s.n
	return optimize.Smooth{
		F: func(x []float64) float64 {
			total := c.AlphaT * (x[4*n] * s.tScale)
			for i := 0; i < n; i++ {
				k := s.client(x, i)
				if k.p <= 0 || k.b <= 0 || k.fc <= 0 || k.fs <= 0 || k.r <= 0 {
					return math.Inf(1)
				}
				e := c.KappaClient[i]*c.SECycles[i]*k.fc*k.fc +
					c.KappaServer*s.cycles[i]*k.fs*k.fs
				pd := k.p * c.DTrBits[i]
				e += pd*pd*z[i] + 1/(4*k.r*k.r*z[i])
				total += c.AlphaE * e
			}
			return total
		},
		Grad: func(x, g []float64) {
			for i := 0; i < n; i++ {
				k := s.client(x, i)
				d2 := c.DTrBits[i] * c.DTrBits[i]
				r3 := k.r * k.r * k.r
				gp, gb, _, _, _ := k.rateTerm(-1/(2*z[i]*r3), 3/(2*z[i]*r3*k.r))
				g[i] = c.AlphaE * (2*k.p*d2*z[i]*k.dp + gp)
				g[n+i] = c.AlphaE * gb
				g[2*n+i] = c.AlphaE * 2 * c.KappaClient[i] * c.SECycles[i] * k.fc * k.dfc
				g[3*n+i] = c.AlphaE * 2 * c.KappaServer * s.cycles[i] * k.fs * k.dfs
			}
			g[4*n] = c.AlphaT * s.tScale
		},
		Hess: func(x []float64, w float64, h [][]float64) {
			for i := 0; i < n; i++ {
				k := s.client(x, i)
				d2 := c.DTrBits[i] * c.DTrBits[i]
				r3 := k.r * k.r * k.r
				_, _, hpp, hpb, hbb := k.rateTerm(-1/(2*z[i]*r3), 3/(2*z[i]*r3*k.r))
				h[i][i] += w * c.AlphaE * (2*d2*z[i]*k.dp*k.dp + hpp)
				h[i][n+i] += w * c.AlphaE * hpb
				h[n+i][i] += w * c.AlphaE * hpb
				h[n+i][n+i] += w * c.AlphaE * hbb
				h[2*n+i][2*n+i] += w * c.AlphaE * 2 * c.KappaClient[i] * c.SECycles[i] * k.dfc * k.dfc
				h[3*n+i][3*n+i] += w * c.AlphaE * 2 * c.KappaServer * s.cycles[i] * k.dfs * k.dfs
			}
		},
	}
}

// trueObjective is the untransformed P5 cost α_e·ΣE + α_t·T used for outer
// convergence: identical to objective at z's fixed point.
func (s stage3Space) trueObjective(x []float64) float64 {
	c := s.c
	p, b, fc, fs, t := s.unpack(x)
	total := c.AlphaT * t
	for i := 0; i < s.n; i++ {
		rate := c.Rate(i, p[i], b[i])
		if rate <= 0 {
			return math.Inf(1)
		}
		e := c.KappaClient[i]*c.SECycles[i]*fc[i]*fc[i] +
			c.KappaServer*s.cycles[i]*fs[i]*fs[i] +
			p[i]*c.DTrBits[i]/rate
		total += c.AlphaE * e
	}
	return total
}

// constraints assembles (17e)–(17i) in the scaled space.
func (s stage3Space) constraints() []optimize.Smooth {
	n := s.n
	dim := s.dim()
	const eps = 1e-5
	var ineqs []optimize.Smooth
	for i := 0; i < n; i++ {
		ineqs = append(ineqs,
			optimize.BoundIneq(i, 1, -1),       // p̃ ≤ 1  (17e)
			optimize.BoundIneq(i, -1, eps),     // p̃ ≥ eps
			optimize.BoundIneq(n+i, -1, eps),   // b̃ ≥ eps
			optimize.BoundIneq(2*n+i, 1, -1),   // f̃c ≤ 1 (17g)
			optimize.BoundIneq(2*n+i, -1, eps), // f̃c ≥ eps
			optimize.BoundIneq(3*n+i, -1, eps), // f̃s ≥ eps
		)
	}
	// Σ b̃ ≤ N (17f) and Σ f̃s ≤ N (17h).
	bSum := make([]float64, dim)
	fsSum := make([]float64, dim)
	for i := 0; i < n; i++ {
		bSum[n+i] = 1
		fsSum[3*n+i] = 1
	}
	ineqs = append(ineqs,
		optimize.LinearIneq(bSum, -float64(n)),
		optimize.LinearIneq(fsSum, -float64(n)),
		optimize.BoundIneq(4*n, -1, eps), // T̃ ≥ eps
	)
	// (17i): delay_i ≤ T, normalized by tScale.
	for i := 0; i < n; i++ {
		ineqs = append(ineqs, s.delayRow(i))
	}
	return ineqs
}

// delayRow is constraint (17i) for client i, (delay_i − T)/tScale ≤ 0, with
// its exact derivatives. It touches client i's four coordinates and T, and
// T enters linearly, so its Hessian is one 5×5 block whose T row is zero.
func (s stage3Space) delayRow(i int) optimize.Smooth {
	c, n := s.c, s.n
	d, se, cy := c.DTrBits[i], c.SECycles[i], s.cycles[i]
	return optimize.Smooth{
		F: func(x []float64) float64 {
			return (s.delay(x, i) - x[4*n]*s.tScale) / s.tScale
		},
		Grad: func(x, g []float64) {
			k := s.client(x, i)
			clear(g)
			gp, gb, _, _, _ := k.rateTerm(-d/(k.r*k.r), 2*d/(k.r*k.r*k.r))
			g[i] = gp / s.tScale
			g[n+i] = gb / s.tScale
			g[2*n+i] = -se * k.dfc / (k.fc * k.fc) / s.tScale
			g[3*n+i] = -cy * k.dfs / (k.fs * k.fs) / s.tScale
			g[4*n] = -1
		},
		Hess: func(x []float64, w float64, h [][]float64) {
			k := s.client(x, i)
			_, _, hpp, hpb, hbb := k.rateTerm(-d/(k.r*k.r), 2*d/(k.r*k.r*k.r))
			h[i][i] += w * hpp / s.tScale
			h[i][n+i] += w * hpb / s.tScale
			h[n+i][i] += w * hpb / s.tScale
			h[n+i][n+i] += w * hbb / s.tScale
			h[2*n+i][2*n+i] += w * 2 * se * k.dfc * k.dfc / (k.fc * k.fc * k.fc) / s.tScale
			h[3*n+i][3*n+i] += w * 2 * cy * k.dfs * k.dfs / (k.fs * k.fs * k.fs) / s.tScale
		},
	}
}

// strictify pulls x off any numerically active constraint so the next
// barrier solve starts strictly feasible: active bound constraints are
// relaxed toward the interior, and T is raised above the current max delay.
func (s stage3Space) strictify(x []float64) []float64 {
	out := mathutil.Clone(x)
	n := s.n
	const pull = 1e-6
	for i := 0; i < n; i++ {
		out[i] = mathutil.Clamp(out[i], 2e-5, 1-pull)
		out[n+i] = math.Max(out[n+i], 2e-5)
		out[2*n+i] = mathutil.Clamp(out[2*n+i], 2e-5, 1-pull)
		out[3*n+i] = math.Max(out[3*n+i], 2e-5)
	}
	// Shrink sum-constrained blocks if they brush the budget.
	scaleBlock := func(lo, hi int) {
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += out[j]
		}
		if limit := float64(n) * (1 - pull); sum > limit {
			f := limit / sum
			for j := lo; j < hi; j++ {
				out[j] *= f
			}
		}
	}
	scaleBlock(n, 2*n)
	scaleBlock(3*n, 4*n)
	// Ensure T̃ strictly dominates every delay.
	maxDelay := 0.0
	for i := 0; i < n; i++ {
		if d := s.delay(out, i); d > maxDelay {
			maxDelay = d
		}
	}
	minT := maxDelay / s.tScale * (1 + 1e-4)
	if out[4*n] < minT {
		out[4*n] = minT
	}
	return out
}
