package ckks

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// evalFormFixture returns a context with headroom for matvec, an
// encrypted vector in coefficient form and its evaluation form.
func evalFormFixture(t *testing.T) (ctx *Context, kg *KeyGenerator, sk *SecretKey, ev *Evaluator, ct, ef *Ciphertext) {
	t.Helper()
	ctx = matvecContext(t)
	kg = NewKeyGenerator(ctx, 91)
	sk = kg.GenSecretKey()
	ev = NewEvaluator(ctx, 92)
	v := make([]float64, ctx.Params.Slots())
	rng := rand.New(rand.NewSource(93))
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	pt, err := NewEncoder(ctx).EncodeReal(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct = ev.Encrypt(kg.GenPublicKey(sk), pt)
	ef = ct.Copy()
	if err := ctx.EvalFormInto(ef, ef); err != nil {
		t.Fatal(err)
	}
	if !ef.IsEvalForm() || ct.IsEvalForm() {
		t.Fatal("in-place conversion did not tag exactly the converted ciphertext")
	}
	return ctx, kg, sk, ev, ct, ef
}

// TestLinearFormMatchesMulPlainChain checks the fused kernel against the
// MulPlainInto/AddInto chain on a bare context, at the top level and one
// below (reading the key's leading limbs), coefficient for coefficient.
func TestLinearFormMatchesMulPlainChain(t *testing.T) {
	ctx, _, _, ev, ct, _ := evalFormFixture(t)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(94))
	const terms = 3
	keys := make([]*Ciphertext, terms)
	efKeys := make([]*Ciphertext, terms)
	vals := make([][]float64, terms)
	coeffs := make([][]int64, terms)
	work := make([]complex128, ctx.Params.N())
	scale := ctx.Params.Scale()
	for j := range keys {
		keys[j] = ct.Copy()
		keys[j].C0[0][j]++ // distinct multiplicands (still reduced: q_0 is far above)
		efKeys[j] = ctx.NewCiphertext(ct.Level)
		if err := ctx.EvalFormInto(keys[j], efKeys[j]); err != nil {
			t.Fatal(err)
		}
		vals[j] = make([]float64, ctx.Params.Slots()-j) // ragged: trailing slots zero
		for i := range vals[j] {
			vals[j][i] = rng.Float64()*2 - 1
		}
		coeffs[j] = make([]int64, ctx.Params.N())
		if err := enc.EncodeRealCoeffs(vals[j], nil, scale, work, coeffs[j]); err != nil {
			t.Fatal(err)
		}
	}
	for _, level := range []int{ctx.MaxLevel(), ctx.MaxLevel() - 1} {
		want := ctx.NewCiphertext(level)
		term, dropped := ctx.NewCiphertext(level), ctx.NewCiphertext(level)
		for j := range keys {
			pt, err := enc.EncodeRealAtLevel(vals[j], scale, level)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.DropLevelInto(keys[j], level, dropped); err != nil {
				t.Fatal(err)
			}
			dst := term
			if j == 0 {
				dst = want
			}
			if err := ev.MulPlainInto(dropped, pt, dst); err != nil {
				t.Fatal(err)
			}
			if j > 0 {
				if err := ev.AddInto(want, term, want); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := ctx.NewCiphertext(ctx.MaxLevel()) // more limbs than the level needs
		if err := ev.LinearFormInto(efKeys, coeffs, scale, level, got); err != nil {
			t.Fatal(err)
		}
		if got.Level != want.Level || got.Scale != want.Scale || got.IsEvalForm() {
			t.Fatalf("level %d: got level/scale %d/%g, want %d/%g", level, got.Level, got.Scale, want.Level, want.Scale)
		}
		for i := 0; i <= level; i++ {
			for k := range want.C0[i] {
				if got.C0[i][k] != want.C0[i][k] || got.C1[i][k] != want.C1[i][k] {
					t.Fatalf("level %d: differs at limb %d coefficient %d", level, i, k)
				}
			}
		}
	}

	// Contract violations fail, typed where a type exists.
	out := ctx.NewCiphertext(ctx.MaxLevel())
	if err := ev.LinearFormInto(keys, coeffs, scale, ctx.MaxLevel(), out); err == nil {
		t.Error("coefficient-form multiplicands accepted")
	}
	if err := ev.LinearFormInto(efKeys, coeffs[:2], scale, ctx.MaxLevel(), out); err == nil {
		t.Error("term count mismatch accepted")
	}
	if err := ev.LinearFormInto(efKeys, coeffs, scale, ctx.MaxLevel(), efKeys[0]); !errors.Is(err, ErrEvalForm) {
		t.Errorf("evaluation-form destination: %v, want ErrEvalForm", err)
	}
	if err := ev.LinearFormInto(efKeys, coeffs, scale, ctx.MaxLevel(), ctx.NewCiphertext(0)); err == nil {
		t.Error("undersized destination accepted")
	}
}

// TestEvalFormRejectedEverywhereElse hands an evaluation-form ciphertext to
// every operation that is not its consumer: each must fail with
// ErrEvalForm — as an error where the signature has one, as a panic
// carrying it where it does not — and none may compute on the limbs.
func TestEvalFormRejectedEverywhereElse(t *testing.T) {
	ctx, kg, sk, ev, ct, ef := evalFormFixture(t)
	rlk := kg.GenRelinKey(sk)
	gks := kg.GenGaloisKeys(sk, []int{1})
	level := ct.Level
	pt, err := NewEncoder(ctx).EncodeReal([]float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, bias := randomMatrix(rand.New(rand.NewSource(95)), 4)
	plan, err := ev.NewMatVecPlan(m, bias, level, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := ctx.NewCiphertext(level)
	second := func(_ *Ciphertext, err error) error { return err }
	ops := map[string]func() error{
		"AddInto lhs":      func() error { return ev.AddInto(ef, ct, out) },
		"AddInto rhs":      func() error { return ev.AddInto(ct, ef, out) },
		"AddInto out":      func() error { return ev.AddInto(ct, ct, ef) },
		"Add":              func() error { return second(ev.Add(ef, ct)) },
		"SubInto":          func() error { return ev.SubInto(ct, ef, out) },
		"SubInto out":      func() error { return ev.SubInto(ct, ct, ef) },
		"Sub":              func() error { return second(ev.Sub(ef, ct)) },
		"AddPlain":         func() error { return second(ev.AddPlain(ef, pt)) },
		"MulPlainInto":     func() error { return ev.MulPlainInto(ef, pt, out) },
		"MulPlainInto out": func() error { return ev.MulPlainInto(ct, pt, ef) },
		"MulPlain":         func() error { return second(ev.MulPlain(ef, pt)) },
		"MulRelinInto":     func() error { return ev.MulRelinInto(ct, ef, rlk, out) },
		"MulRelin":         func() error { return second(ev.MulRelin(ef, ct, rlk)) },
		"RescaleInto":      func() error { return ev.RescaleInto(ef, out) },
		"Rescale":          func() error { return second(ev.Rescale(ef)) },
		"DropLevelInto":    func() error { return ev.DropLevelInto(ef, level-1, out) },
		"DropLevel":        func() error { return second(ev.DropLevel(ef, level-1)) },
		"DropLevel same":   func() error { return second(ev.DropLevel(ef, level)) },
		"RotateInto":       func() error { return ev.RotateInto(ef, 1, gks, out) },
		"RotateInto 0":     func() error { return ev.RotateInto(ef, 0, gks, out) },
		"Rotate":           func() error { return second(ev.Rotate(ef, 1, gks)) },
		"MatVecInto":       func() error { return ev.MatVecInto(plan, ef, gks, out) },
		"TrivialSubInto":   func() error { return ev.TrivialSubInto(make([]int64, ctx.Params.N()), ef.Scale, ef, out) },
		"EvalFormInto":     func() error { return ctx.EvalFormInto(ef, out) },
		"DecryptInto":      func() error { return ev.DecryptInto(sk, ef, new(Plaintext)) },
		"RotateHoistedInto out": func() error {
			h := ev.NewHoisted()
			ev.HoistInto(h, ct)
			return ev.RotateHoistedInto(h, 1, gks, ef)
		},
	}
	for name, op := range ops {
		if err := op(); !errors.Is(err, ErrEvalForm) {
			t.Errorf("%s on an evaluation-form ciphertext: %v, want ErrEvalForm", name, err)
		}
	}
	panics := map[string]func(){
		"Decrypt":      func() { ev.Decrypt(sk, ef) },
		"HoistInto":    func() { ev.HoistInto(ev.NewHoisted(), ef) },
		"AppendBinary": func() { ef.AppendBinary(nil) },
	}
	for name, op := range panics {
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, ErrEvalForm) {
					t.Errorf("%s on an evaluation-form ciphertext recovered %v, want a panic with ErrEvalForm", name, err)
				}
			}()
			op()
		}()
	}
	// A decode overwrites every limb with wire data, so the receiver
	// comes back in coefficient form; a copy keeps its form.
	if !ef.Copy().IsEvalForm() {
		t.Error("Copy dropped the evaluation-form tag")
	}
	recv := ef.Copy()
	if _, err := recv.DecodeFrom(ct.AppendBinary(nil)); err != nil || recv.IsEvalForm() {
		t.Errorf("decode into an evaluation-form receiver: err %v, still tagged %v", err, recv.IsEvalForm())
	}
}

// TestEvalFormIntoValidates covers the install-time checks on a bare
// ciphertext: nothing is written when any of them fails.
func TestEvalFormIntoValidates(t *testing.T) {
	ctx, _, _, _, ct, _ := evalFormFixture(t)
	mutations := map[string]func(c *Ciphertext){
		"residue == q":       func(c *Ciphertext) { c.C0[1][3] = ctx.Primes[1] },
		"residue all-ones":   func(c *Ciphertext) { c.C1[0][0] = ^uint64(0) },
		"ragged limb":        func(c *Ciphertext) { c.C1[2] = c.C1[2][:7] },
		"limb count":         func(c *Ciphertext) { c.C0 = c.C0[:len(c.C0)-1] },
		"negative level":     func(c *Ciphertext) { c.Level = -1 },
		"level past chain":   func(c *Ciphertext) { c.Level = ctx.MaxLevel() + 1 },
		"NaN scale":          func(c *Ciphertext) { c.Scale = math.NaN() },
		"non-positive scale": func(c *Ciphertext) { c.Scale = 0 },
	}
	for name, mutate := range mutations {
		bad := ct.Copy()
		mutate(bad)
		out := ctx.NewCiphertext(ctx.MaxLevel())
		if err := ctx.EvalFormInto(bad, out); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
		if out.IsEvalForm() || out.C0[0][0] != 0 {
			t.Errorf("%s: target written despite the rejection", name)
		}
	}
	if err := ctx.EvalFormInto(nil, ctx.NewCiphertext(0)); !errors.Is(err, ErrMalformed) {
		t.Errorf("nil ciphertext: %v, want ErrMalformed", err)
	}
	if err := ctx.EvalFormInto(ct, ctx.NewCiphertext(0)); err == nil {
		t.Error("undersized target accepted")
	}
}
