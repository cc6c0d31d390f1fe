package profile_test

import (
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
)

func TestDefaultRegistryShape(t *testing.T) {
	reg := profile.Default()
	ids := reg.IDs()
	want := []string{profile.IDLambda32k, profile.IDLambda64k, profile.IDLambda128k}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d profiles, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %q, want %q (ascending λ order)", i, ids[i], id)
		}
	}
	if reg.DefaultID() != profile.IDDefault {
		t.Errorf("default = %q, want %q", reg.DefaultID(), profile.IDDefault)
	}
	// Every profile must carry an honest multi-limb chain (depth ≥ 4) so
	// the control plane's λ choice actuates a real residue tower.
	def := reg.Default()
	if def.Params.LogN != 10 || def.Params.Depth < 4 {
		t.Errorf("default params LogN=%d Depth=%d, want 10/≥4",
			def.Params.LogN, def.Params.Depth)
	}
	var profs []*profile.Profile
	for _, id := range ids {
		p, _ := reg.Get(id)
		if p.Params.Depth < 4 {
			t.Errorf("%s: depth %d, want ≥ 4", p.ID, p.Params.Depth)
		}
		profs = append(profs, p)
	}
	// λ, MSL and cost coefficients are strictly increasing in the order.
	for i := 1; i < len(profs); i++ {
		if profs[i].Lambda <= profs[i-1].Lambda {
			t.Errorf("λ not increasing: %g after %g", profs[i].Lambda, profs[i-1].Lambda)
		}
		if profs[i].MSL() <= profs[i-1].MSL() {
			t.Errorf("MSL not increasing: %g after %g", profs[i].MSL(), profs[i-1].MSL())
		}
		if profs[i].ModeledCyclesPerBlock() <= profs[i-1].ModeledCyclesPerBlock() {
			t.Errorf("modeled cost not increasing: %g after %g",
				profs[i].ModeledCyclesPerBlock(), profs[i-1].ModeledCyclesPerBlock())
		}
	}
	if _, ok := reg.ByLambda(12345); ok {
		t.Error("ByLambda matched a λ outside the set")
	}
}

func TestContextCachedAndShared(t *testing.T) {
	p := profile.Default().Default()
	c1, err := p.Context()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Context()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("Context() rebuilt instead of returning the cached instance")
	}
	if c1.Params.N() != p.Params.N() {
		t.Errorf("context N=%d, profile N=%d", c1.Params.N(), p.Params.N())
	}
}

func TestRegistryValidation(t *testing.T) {
	good, err := ckks.NewParams(10, 25, 18, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profile.NewRegistry(""); err == nil {
		t.Error("empty registry accepted")
	}
	if _, err := profile.NewRegistry("",
		&profile.Profile{ID: "a", Lambda: 1, Params: good},
		&profile.Profile{ID: "a", Lambda: 2, Params: good}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := profile.NewRegistry("missing",
		&profile.Profile{ID: "a", Lambda: 1, Params: good}); err == nil {
		t.Error("unknown default accepted")
	}
	bad := good
	bad.LogN = 99
	if _, err := profile.NewRegistry("",
		&profile.Profile{ID: "bad", Lambda: 1, Params: bad}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestCalibrateInstallsCoefficient runs the real per-block measurement on
// the smallest profile and checks the registry serves it back through
// CyclesPerBlock.
func TestCalibrateInstallsCoefficient(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a key generation")
	}
	p := profile.Default().Default()
	d, err := p.Calibrate(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("calibration measured %v", d)
	}
	got := p.CyclesPerBlock()
	if want := d.Seconds() * profile.RefHz; got != want {
		t.Errorf("CyclesPerBlock = %g, want the measured %g", got, want)
	}
	// The modeled fallback should be in the same decade as the
	// measurement — it is what uncalibrated controllers plan with.
	modeled := p.ModeledCyclesPerBlock()
	if ratio := modeled / got; ratio < 0.1 || ratio > 10 {
		t.Logf("modeled/measured coefficient ratio %.2f drifting; consider refitting modeledCyclesPerLimbNLogN", ratio)
	}
}
