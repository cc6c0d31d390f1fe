package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"quhe/internal/mathutil"
	"quhe/internal/qnet"
)

// checkFeasible verifies every constraint of P1 (17a)–(17i) at v, returning
// a descriptive error for the first violation: the oracle every solver's
// output is held to. tol is an absolute/relative
// slack for the budget constraints (pass 0 for exact checking).
func checkFeasible(c *Config, v Variables, tol float64) error {
	n := c.N()
	for i := 0; i < n; i++ {
		if v.Phi[i] < c.PhiMin[i]-tol {
			return fmt.Errorf("core: (17a) φ[%d] = %g < min %g", i, v.Phi[i], c.PhiMin[i])
		}
		if v.P[i] > c.PMax[i]*(1+tol)+tol {
			return fmt.Errorf("core: (17e) p[%d] = %g > max %g", i, v.P[i], c.PMax[i])
		}
		if v.FC[i] > c.FCMax[i]*(1+tol)+tol {
			return fmt.Errorf("core: (17g) f_c[%d] = %g > max %g", i, v.FC[i], c.FCMax[i])
		}
		found := false
		for _, lam := range c.LambdaSet {
			if v.Lambda[i] == lam {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: (17d) λ[%d] = %g not in LambdaSet", i, v.Lambda[i])
		}
	}
	for l, w := range v.W {
		if w <= 0 || w > 1+tol {
			return fmt.Errorf("core: (17b) w[%d] = %g outside (0,1]", l, w)
		}
	}
	loads, err := c.Net.LinkLoads(v.Phi)
	if err != nil {
		return err
	}
	for l, load := range loads {
		capacity := qnet.LinkCapacity(c.Net.Link(l).Beta, v.W[l])
		if load > capacity*(1+tol)+tol {
			return fmt.Errorf("core: (17c) link %d load %g > capacity %g", l+1, load, capacity)
		}
	}
	if s := mathutil.Sum(v.B); s > c.BTotal*(1+tol)+tol {
		return fmt.Errorf("core: (17f) Σb = %g > B_total %g", s, c.BTotal)
	}
	if s := mathutil.Sum(v.FS); s > c.FSTotal*(1+tol)+tol {
		return fmt.Errorf("core: (17h) Σf_s = %g > f_total %g", s, c.FSTotal)
	}
	for i := 0; i < n; i++ {
		d := c.ClientDelay(i, v.Lambda[i], v.P[i], v.B[i], v.FC[i], v.FS[i])
		if d > v.T*(1+tol)+tol {
			return fmt.Errorf("core: (17i) delay[%d] = %g > T %g", i, d, v.T)
		}
	}
	return nil
}

func TestPaperConfigValid(t *testing.T) {
	c := PaperConfig(1)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.N() != 6 {
		t.Errorf("N = %d, want 6", c.N())
	}
	if len(c.LambdaSet) != 3 || c.LambdaSet[0] != 32768 || c.LambdaSet[2] != 131072 {
		t.Errorf("LambdaSet = %v", c.LambdaSet)
	}
}

func TestPaperConfigSeedDeterminism(t *testing.T) {
	a := PaperConfig(7)
	b := PaperConfig(7)
	c := PaperConfig(8)
	for i := range a.Gains {
		if a.Gains[i] != b.Gains[i] {
			t.Fatalf("same seed produced different gains at %d", i)
		}
	}
	same := true
	for i := range a.Gains {
		if a.Gains[i] != c.Gains[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical gains")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"nil net", func(c *Config) { c.Net = nil }, "nil network"},
		{"short phimin", func(c *Config) { c.PhiMin = c.PhiMin[:2] }, "PhiMin"},
		{"negative pmax", func(c *Config) { c.PMax[0] = -1 }, "PMax"},
		{"zero gain", func(c *Config) { c.Gains[3] = 0 }, "Gains"},
		{"empty lambda", func(c *Config) { c.LambdaSet = nil }, "LambdaSet"},
		{"unsorted lambda", func(c *Config) { c.LambdaSet = []float64{2, 1} }, "ascending"},
		{"zero alpha", func(c *Config) { c.AlphaT = 0 }, "AlphaT"},
		{"nan btotal", func(c *Config) { c.BTotal = math.NaN() }, "BTotal"},
		{"infeasible phimin", func(c *Config) {
			for i := range c.PhiMin {
				c.PhiMin[i] = 1e6
			}
		}, "link capacities"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := PaperConfig(1)
			tt.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	a := PaperConfig(1)
	b := a.Clone()
	b.PMax[0] = 99
	b.BTotal = 1
	if a.PMax[0] == 99 || a.BTotal == 1 {
		t.Error("Clone shares state with original")
	}
}

func TestDefaultVariablesFeasible(t *testing.T) {
	c := PaperConfig(1)
	v, err := c.DefaultVariables()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFeasible(c, v, 1e-9); err != nil {
		t.Errorf("default variables infeasible: %v", err)
	}
}

func TestSampleVariablesFeasible(t *testing.T) {
	c := PaperConfig(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		v, err := c.SampleVariables(rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFeasible(c, v, 1e-9); err != nil {
			t.Errorf("sample %d infeasible: %v", i, err)
		}
	}
}

func TestEvaluateConsistency(t *testing.T) {
	c := PaperConfig(1)
	v, err := c.DefaultVariables()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	want := c.AlphaQKD*ev.UQKD + c.AlphaMSL*ev.UMSL - c.AlphaT*ev.Delay - c.AlphaE*ev.Energy
	if math.Abs(ev.Objective-want) > 1e-12 {
		t.Errorf("Objective = %v, want recomposed %v", ev.Objective, want)
	}
	maxD := 0.0
	sumE := 0.0
	for i := range ev.PerClientDelay {
		if ev.PerClientDelay[i] > maxD {
			maxD = ev.PerClientDelay[i]
		}
		sumE += ev.PerClientEnergy[i]
	}
	if ev.Delay != maxD {
		t.Errorf("Delay = %v, max per-client = %v", ev.Delay, maxD)
	}
	if math.Abs(ev.Energy-sumE) > 1e-9 {
		t.Errorf("Energy = %v, sum per-client = %v", ev.Energy, sumE)
	}
}

func TestEvaluateDimensionErrors(t *testing.T) {
	c := PaperConfig(1)
	v, err := c.DefaultVariables()
	if err != nil {
		t.Fatal(err)
	}
	bad := v.Clone()
	bad.P = bad.P[:2]
	if _, err := c.Evaluate(bad); err == nil {
		t.Error("short P accepted")
	}
	bad = v.Clone()
	bad.W = bad.W[:3]
	if _, err := c.Evaluate(bad); err == nil {
		t.Error("short W accepted")
	}
}

func TestCheckFeasibleViolations(t *testing.T) {
	c := PaperConfig(1)
	base, err := c.DefaultVariables()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Variables)
		want   string
	}{
		{"phi below min", func(v *Variables) { v.Phi[0] = c.PhiMin[0] / 2 }, "(17a)"},
		{"werner above one", func(v *Variables) { v.W[0] = 1.5 }, "(17b)"},
		{"load above capacity", func(v *Variables) { v.W[16] = 0.9999999 }, "(17c)"},
		{"bad lambda", func(v *Variables) { v.Lambda[0] = 12345 }, "(17d)"},
		{"power above max", func(v *Variables) { v.P[0] = c.PMax[0] * 2 }, "(17e)"},
		{"bandwidth over budget", func(v *Variables) { v.B[0] = c.BTotal }, "(17f)"},
		{"client cpu over max", func(v *Variables) { v.FC[0] = c.FCMax[0] * 2 }, "(17g)"},
		{"server cpu over budget", func(v *Variables) { v.FS[0] = c.FSTotal }, "(17h)"},
		{"delay above T", func(v *Variables) { v.T = 1e-6 }, "(17i)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := base.Clone()
			tt.mutate(&v)
			err := checkFeasible(c, v, 1e-9)
			if err == nil {
				t.Fatal("violation not detected")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestVariablesCloneDeep(t *testing.T) {
	c := PaperConfig(1)
	v, err := c.DefaultVariables()
	if err != nil {
		t.Fatal(err)
	}
	dup := v.Clone()
	dup.Phi[0] = 999
	dup.W[0] = 0.1
	if v.Phi[0] == 999 || v.W[0] == 0.1 {
		t.Error("Clone shares slices")
	}
}
