package core

import (
	"fmt"
	"math/rand"

	"quhe/internal/costmodel"
	"quhe/internal/mathutil"
	"quhe/internal/wireless"
)

// Variables is a complete assignment of P1's optimization variables
// (φ, w, λ, p, b, f_c, f_s, T).
type Variables struct {
	// Phi is the entanglement rate per route (pairs/s).
	Phi []float64
	// W is the Werner parameter per link.
	W []float64
	// Lambda is the CKKS polynomial degree per client (values from
	// Config.LambdaSet, carried as float64).
	Lambda []float64
	// P is the transmit power per client (W).
	P []float64
	// B is the allocated bandwidth per client (Hz).
	B []float64
	// FC is the client CPU frequency per client (Hz).
	FC []float64
	// FS is the server CPU share per client (Hz).
	FS []float64
	// T is the auxiliary delay bound (s); Evaluate recomputes the true
	// maximum delay, so T only matters inside the solver stages.
	T float64
}

// Clone returns a deep copy.
func (v Variables) Clone() Variables {
	return Variables{
		Phi:    mathutil.Clone(v.Phi),
		W:      mathutil.Clone(v.W),
		Lambda: mathutil.Clone(v.Lambda),
		P:      mathutil.Clone(v.P),
		B:      mathutil.Clone(v.B),
		FC:     mathutil.Clone(v.FC),
		FS:     mathutil.Clone(v.FS),
		T:      v.T,
	}
}

// Evaluation decomposes the objective (17) at a variable assignment.
type Evaluation struct {
	// UQKD is the QKD network utility (6).
	UQKD float64
	// UMSL is the weighted minimum security level (9).
	UMSL float64
	// Delay is T_total (15): the maximum per-client end-to-end delay.
	Delay float64
	// Energy is E_total (16).
	Energy float64
	// Objective is α_qkd·U_qkd + α_msl·U_msl − α_t·Delay − α_e·Energy.
	Objective float64
	// PerClientDelay and PerClientEnergy break the costs down (15)–(16).
	PerClientDelay  []float64
	PerClientEnergy []float64
}

// Rate returns client n's uplink Shannon rate (10) at power p and
// bandwidth b.
func (c *Config) Rate(n int, p, b float64) float64 {
	return wireless.ShannonRate(b, p, c.Gains[n], c.NoisePSD)
}

// ClientDelay returns T_enc + T_tr + T_cmp for client n (the left side of
// Constraint 17i).
func (c *Config) ClientDelay(n int, lambda, p, b, fc, fs float64) float64 {
	enc := costmodel.EncryptionDelay(c.SECycles[n], fc)
	tr := wireless.TxDelay(c.DTrBits[n], c.Rate(n, p, b))
	cmp := costmodel.ComputeDelay(lambda, c.DCmpTokens[n], c.TokensPerSample[n], fs)
	return enc + tr + cmp
}

// ClientEnergy returns E_enc + E_tr + E_cmp for client n.
func (c *Config) ClientEnergy(n int, lambda, p, b, fc, fs float64) float64 {
	enc := costmodel.EncryptionEnergy(c.KappaClient[n], c.SECycles[n], fc)
	tr := wireless.TxEnergy(p, wireless.TxDelay(c.DTrBits[n], c.Rate(n, p, b)))
	cmp := costmodel.ComputeEnergy(c.KappaServer, lambda, c.DCmpTokens[n], c.TokensPerSample[n], fs)
	return enc + tr + cmp
}

// Evaluate computes the decomposed objective (17) at v. The reported
// Objective uses the true maximum delay (15), not v.T.
func (c *Config) Evaluate(v Variables) (Evaluation, error) {
	var ev Evaluation
	n := c.N()
	for _, f := range []struct {
		name string
		l    int
	}{
		{"Phi", len(v.Phi)}, {"Lambda", len(v.Lambda)}, {"P", len(v.P)},
		{"B", len(v.B)}, {"FC", len(v.FC)}, {"FS", len(v.FS)},
	} {
		if f.l != n {
			return ev, fmt.Errorf("core: %s has %d entries for %d clients", f.name, f.l, n)
		}
	}
	if len(v.W) != c.Net.NumLinks() {
		return ev, fmt.Errorf("core: W has %d entries for %d links", len(v.W), c.Net.NumLinks())
	}

	uq, err := c.Net.Utility(v.Phi, v.W)
	if err != nil {
		return ev, err
	}
	ev.UQKD = uq
	ev.UMSL, err = costmodel.WeightedSecurity(c.SecurityWeights, v.Lambda)
	if err != nil {
		return ev, err
	}
	ev.PerClientDelay = make([]float64, n)
	ev.PerClientEnergy = make([]float64, n)
	for i := 0; i < n; i++ {
		ev.PerClientDelay[i] = c.ClientDelay(i, v.Lambda[i], v.P[i], v.B[i], v.FC[i], v.FS[i])
		ev.PerClientEnergy[i] = c.ClientEnergy(i, v.Lambda[i], v.P[i], v.B[i], v.FC[i], v.FS[i])
	}
	ev.Delay = costmodel.TotalDelay(ev.PerClientDelay)
	ev.Energy = costmodel.TotalEnergy(ev.PerClientEnergy)
	ev.Objective = c.AlphaQKD*ev.UQKD + c.AlphaMSL*ev.UMSL - c.AlphaT*ev.Delay - c.AlphaE*ev.Energy
	return ev, nil
}

// DefaultVariables returns the deterministic feasible start the QuHE
// algorithm iterates from: minimum-plus-margin entanglement rates with the
// matching Eq. (18) Werner point, the smallest λ, and even resource splits
// at half power.
func (c *Config) DefaultVariables() (Variables, error) {
	n := c.N()
	v := Variables{
		Phi:    make([]float64, n),
		Lambda: make([]float64, n),
		P:      make([]float64, n),
		B:      make([]float64, n),
		FC:     make([]float64, n),
		FS:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		v.Phi[i] = c.PhiMin[i] * 1.2
		v.Lambda[i] = c.LambdaSet[0]
		v.P[i] = c.PMax[i] / 2
		v.B[i] = c.BTotal / float64(n) * 0.9
		v.FC[i] = c.FCMax[i] / 2
		v.FS[i] = c.FSTotal / float64(n) * 0.9
	}
	w, err := c.Net.WernerFromRates(v.Phi)
	if err != nil {
		return v, err
	}
	v.W = w
	v.T = c.maxDelay(v) * 1.5
	return v, nil
}

// SampleVariables draws the random initial configuration used by the
// Fig. 3 optimality study: bandwidth, power and CPU frequencies uniform over
// their feasible boxes (budgets split evenly before scaling), rates at the
// deterministic start.
func (c *Config) SampleVariables(rng *rand.Rand) (Variables, error) {
	v, err := c.DefaultVariables()
	if err != nil {
		return v, err
	}
	n := c.N()
	for i := 0; i < n; i++ {
		v.P[i] = c.PMax[i] * (0.05 + 0.95*rng.Float64())
		v.B[i] = c.BTotal / float64(n) * (0.05 + 0.9*rng.Float64())
		v.FC[i] = c.FCMax[i] * (0.05 + 0.95*rng.Float64())
		v.FS[i] = c.FSTotal / float64(n) * (0.05 + 0.9*rng.Float64())
	}
	v.T = c.maxDelay(v) * 1.5
	return v, nil
}

// maxDelay returns the maximum per-client delay at v (Eq. 15).
func (c *Config) maxDelay(v Variables) float64 {
	m := 0.0
	for i := 0; i < c.N(); i++ {
		if d := c.ClientDelay(i, v.Lambda[i], v.P[i], v.B[i], v.FC[i], v.FS[i]); d > m {
			m = d
		}
	}
	return m
}
