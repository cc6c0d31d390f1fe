package profile_test

import (
	"strings"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/transcipher"
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
	// Every profile carries the chain its deepest served op consumes —
	// the transcipher's two levels and the matvec kernel's one — and not
	// a limb more.
	def, _ := reg.Get(reg.DefaultID())
	if def.Params.LogN != 10 || def.Params.Depth != 3 {
		t.Errorf("default params LogN=%d Depth=%d, want 10/3",
			def.Params.LogN, def.Params.Depth)
	}
	var profs []*profile.Profile
	for _, id := range ids {
		p, _ := reg.Get(id)
		if p.Params.Depth != 3 {
			t.Errorf("%s: depth %d, want 3", p.ID, p.Params.Depth)
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
		if profs[i].CyclesPerBlock() <= profs[i-1].CyclesPerBlock() {
			t.Errorf("modeled cost not increasing: %g after %g",
				profs[i].CyclesPerBlock(), profs[i-1].CyclesPerBlock())
		}
	}
	if _, ok := reg.ByLambda(12345); ok {
		t.Error("ByLambda matched a λ outside the set")
	}
}

// TestBuiltInParamsFollowServedOps pins every registered profile to the
// chain the served ops derive: a 60-bit base prime, one 50-bit scale
// prime per level the transcipher and the matvec kernel consume, at the
// profile's ring degree.
func TestBuiltInParamsFollowServedOps(t *testing.T) {
	logN := map[string]int{profile.IDLambda32k: 10, profile.IDLambda64k: 11, profile.IDLambda128k: 12}
	reg := profile.Default()
	for _, id := range reg.IDs() {
		p, _ := reg.Get(id)
		want, err := ckks.NewParams(logN[id], 60, 50, transcipher.Levels+ckks.MatVecLevels)
		if err != nil {
			t.Fatal(err)
		}
		if p.Params != want {
			t.Errorf("%s: params %+v, want %+v", id, p.Params, want)
		}
	}
}

// TestKeysAtServedLevels: every registered profile's context builds the
// relinearization key for the transcipher's squaring level, top−1 (level
// 2 on the depth-3 chain: 3 digits × 4 QP limbs), and Galois keys for the
// level the matvec kernel rotates at, top−transcipher.Levels (level 1: 2
// digits × 3 limbs) — and the keys it builds have those widths.
func TestKeysAtServedLevels(t *testing.T) {
	reg := profile.Default()
	for _, id := range reg.IDs() {
		p, _ := reg.Get(id)
		ctx, err := p.Context()
		if err != nil {
			t.Fatal(err)
		}
		top := ctx.MaxLevel()
		if got, want := ctx.RelinLevel(), top-transcipher.RelinDrop; got != want || got != 2 {
			t.Errorf("%s: relinearization keys for level %d, want %d (2 on the served chain)", id, got, want)
		}
		if got, want := ctx.GaloisLevel(), top-transcipher.Levels; got != want || got != 1 {
			t.Errorf("%s: Galois keys for level %d, want %d (1 on the served chain)", id, got, want)
		}
		kg := ckks.NewKeyGenerator(ctx, 7)
		sk := kg.GenSecretKey()
		gk := kg.GenGaloisKey(sk, 1)
		for _, k := range []struct {
			name          string
			key           *ckks.SwitchingKey
			digits, limbs int
		}{{"relinearization", kg.GenRelinKey(sk), 3, 4}, {"galois", &gk.SwitchingKey, 2, 3}} {
			if len(k.key.Parts) != k.digits || len(k.key.Parts[0][0]) != k.limbs || len(k.key.QP) != k.limbs {
				t.Errorf("%s: %s key spans %d digits × %d limbs over %d moduli, want %d × %d",
					id, k.name, len(k.key.Parts), len(k.key.Parts[0][0]), len(k.key.QP), k.digits, k.limbs)
			}
		}
	}
}

func TestContextCachedAndShared(t *testing.T) {
	p, _ := profile.Default().Get(profile.IDDefault)
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
	good, err := ckks.NewParams(10, 25, 18, transcipher.Levels+ckks.MatVecLevels)
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

// TestRegistryRefusesShallowProfile: a profile with fewer levels than the
// transcipher and the matvec kernel consume together is refused at
// registry build, by name, even beside a deep enough one.
func TestRegistryRefusesShallowProfile(t *testing.T) {
	deep, err := ckks.NewParams(10, 25, 18, transcipher.Levels+ckks.MatVecLevels)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := ckks.NewParams(10, 25, 18, transcipher.Levels)
	if err != nil {
		t.Fatal(err)
	}
	_, err = profile.NewRegistry("",
		&profile.Profile{ID: "deep", Lambda: 1, Params: deep},
		&profile.Profile{ID: "too-shallow", Lambda: 2, Params: shallow})
	if err == nil {
		t.Fatal("registry accepted a profile shallower than the served ops")
	}
	if !strings.Contains(err.Error(), "too-shallow") {
		t.Errorf("refusal %q does not name the profile", err)
	}
	if _, err := profile.NewRegistry("", &profile.Profile{ID: "deep", Lambda: 1, Params: deep}); err != nil {
		t.Errorf("registry refused a profile exactly as deep as the served ops: %v", err)
	}
}

// TestCalibrateInstallsNothing runs the real per-block measurement on the
// smallest profile and checks the profile still prices a block with the
// model: a host measurement in one experiment must not reprice every later
// reply and plan in the process.
func TestCalibrateInstallsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a key generation")
	}
	p, _ := profile.Default().Get(profile.IDDefault)
	before := p.BlockCycles(0)
	d, err := p.Calibrate(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("calibration measured %v", d)
	}
	if got := p.BlockCycles(0); got != before {
		t.Errorf("BlockCycles(0) = %g after Calibrate, %g before", got, before)
	}
	// The model should be in the same decade as the measurement.
	if ratio := before / (d.Seconds() * profile.RefHz); ratio < 0.1 || ratio > 10 {
		t.Logf("modeled/measured coefficient ratio %.2f drifting; consider refitting modeledCyclesPerLimbNLogN", ratio)
	}
}
