package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"quhe/internal/mathutil"
)

// Box describes per-coordinate bounds Lo[i] ≤ x[i] ≤ Hi[i].
type Box struct {
	Lo, Hi []float64
}

// Validate checks that the box is well formed for dimension n.
func (b Box) Validate(n int) error {
	if len(b.Lo) != n || len(b.Hi) != n {
		return fmt.Errorf("optimize: box dimension %d/%d, want %d: %w",
			len(b.Lo), len(b.Hi), n, mathutil.ErrDimensionMismatch)
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("optimize: box bound %d inverted: [%g, %g]", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// Project clamps x into the box in place.
func (b Box) Project(x []float64) {
	mathutil.ClampVecInPlace(x, b.Lo, b.Hi)
}

// GDOptions configures the fixed-learning-rate gradient descent baseline.
// The QuHE paper uses learning rate 0.01 for its Stage-1 "GD" baseline
// (§VI-B); that is the default here.
type GDOptions struct {
	// LearningRate is the fixed step size. Default 0.01.
	LearningRate float64
	// MaxIter bounds the number of steps. Default 20000.
	MaxIter int
	// Tol stops when the objective improves by less than Tol between
	// iterations. Default 1e-10.
	Tol float64
}

func (o GDOptions) defaults() GDOptions {
	if o.LearningRate <= 0 {
		o.LearningRate = 0.01
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	return o
}

// Result is the common outcome type of the heuristic baselines.
type Result struct {
	X         []float64
	Value     float64
	Iters     int
	Converged bool
	Values    []float64 // objective trace (may be sub-sampled for SA/RS)
}

// GradientDescent minimizes f with a fixed learning rate, projecting onto
// the box after each step. It deliberately mirrors the naive baseline in the
// paper: no line search, no curvature information, so it takes far more
// iterations than the barrier method — which is the point of Fig. 5(b).
func GradientDescent(f Func, box Box, x0 []float64, opts GDOptions) (Result, error) {
	o := opts.defaults()
	var res Result
	if err := box.Validate(len(x0)); err != nil {
		return res, err
	}
	x := mathutil.Clone(x0)
	box.Project(x)
	fx := f(x)
	for iter := 0; iter < o.MaxIter; iter++ {
		res.Iters++
		g := Gradient(f, x)
		if !mathutil.AllFinite(g) {
			return res, errors.New("optimize: non-finite gradient in gradient descent")
		}
		for i := range x {
			x[i] = mathutil.Clamp(x[i]-o.LearningRate*g[i], box.Lo[i], box.Hi[i])
		}
		next := f(x)
		res.Values = append(res.Values, next)
		if math.Abs(fx-next) < o.Tol {
			fx = next
			res.Converged = true
			break
		}
		fx = next
	}
	res.X = x
	res.Value = fx
	return res, nil
}

// The annealing schedule: the starting temperature and the geometric
// cooling factor per step.
const (
	saInitTemp = 1.0
	saCooling  = 0.9995
)

// SAOptions configures simulated annealing (the simulannealbnd substitute).
type SAOptions struct {
	// Iters is the number of proposal steps. Default 20000.
	Iters int
	// StepFrac scales proposal moves relative to box width. Default 0.1.
	StepFrac float64
	// Seed seeds the internal RNG; 0 means a fixed default seed so runs
	// are reproducible.
	Seed int64
}

func (o SAOptions) defaults() SAOptions {
	if o.Iters <= 0 {
		o.Iters = 20000
	}
	if o.StepFrac <= 0 {
		o.StepFrac = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Anneal minimizes f over the box by simulated annealing. Infeasible
// proposals (f = +Inf) are always rejected. The returned trace records the
// best-so-far value each iteration it improves.
func Anneal(f Func, box Box, x0 []float64, opts SAOptions) (Result, error) {
	o := opts.defaults()
	var res Result
	if err := box.Validate(len(x0)); err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	x := mathutil.Clone(x0)
	box.Project(x)
	fx := f(x)
	best := mathutil.Clone(x)
	fbest := fx
	temp := saInitTemp
	width := make([]float64, len(x))
	for i := range width {
		width[i] = box.Hi[i] - box.Lo[i]
	}
	cand := make([]float64, len(x))
	for iter := 0; iter < o.Iters; iter++ {
		res.Iters++
		for i := range x {
			cand[i] = mathutil.Clamp(x[i]+rng.NormFloat64()*o.StepFrac*width[i]*math.Max(temp, 1e-3),
				box.Lo[i], box.Hi[i])
		}
		fc := f(cand)
		if fc < fx || (!math.IsInf(fc, 1) && rng.Float64() < math.Exp((fx-fc)/math.Max(temp, 1e-12))) {
			copy(x, cand)
			fx = fc
			if fx < fbest {
				fbest = fx
				copy(best, x)
				res.Values = append(res.Values, fbest)
			}
		}
		temp *= saCooling
	}
	res.X = best
	res.Value = fbest
	res.Converged = true
	return res, nil
}

// RSOptions configures RandomSearch. The paper's "random selection" baseline
// samples 10⁴ uniform points from the feasible space and keeps the best.
type RSOptions struct {
	// Samples is the number of uniform draws. Default 10000.
	Samples int
	// Seed seeds the RNG; 0 means a fixed default seed.
	Seed int64
}

func (o RSOptions) defaults() RSOptions {
	if o.Samples <= 0 {
		o.Samples = 10000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RandomSearch minimizes f by uniform sampling over the box, ignoring
// samples where f is +Inf. It returns an error when every sample was
// infeasible.
func RandomSearch(f Func, box Box, opts RSOptions) (Result, error) {
	o := opts.defaults()
	var res Result
	n := len(box.Lo)
	if err := box.Validate(n); err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	best := make([]float64, n)
	fbest := math.Inf(1)
	x := make([]float64, n)
	for s := 0; s < o.Samples; s++ {
		res.Iters++
		for i := range x {
			x[i] = box.Lo[i] + rng.Float64()*(box.Hi[i]-box.Lo[i])
		}
		if fx := f(x); fx < fbest {
			fbest = fx
			copy(best, x)
			res.Values = append(res.Values, fbest)
		}
	}
	if math.IsInf(fbest, 1) {
		return res, errors.New("optimize: random search found no feasible sample")
	}
	res.X = best
	res.Value = fbest
	res.Converged = true
	return res, nil
}
