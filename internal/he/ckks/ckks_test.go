package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quhe/internal/he/ring"
)

// testContext returns a small, fast context (N=256, depth 1).
func testContext(t testing.TB) *Context {
	t.Helper()
	p, err := NewParams(8, 35, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randomSlots(rng *rand.Rand, n int) []complex128 {
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return z
}

func maxSlotError(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(2, 35, 25, 1); err == nil {
		t.Error("tiny logN accepted")
	}
	if _, err := NewParams(8, 62, 25, 1); err == nil {
		t.Error("oversized base accepted")
	}
	if _, err := NewParams(8, 35, 40, 3); err == nil {
		t.Error("scale primes above the base accepted")
	}
	if _, err := NewParams(8, 35, 25, 9); err == nil {
		t.Error("oversized depth accepted")
	}
	if _, err := NewParams(8, 35, 25, -1); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := NewParams(8, 40, 25, 4); err != nil {
		t.Error("deep multi-limb chain rejected:", err)
	}
	p, err := NewParams(11, 35, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != p.N()/2 {
		t.Error("slots != N/2")
	}
}

func TestContextChain(t *testing.T) {
	ctx := testContext(t)
	if ctx.MaxLevel() != 1 {
		t.Fatalf("MaxLevel = %d, want 1", ctx.MaxLevel())
	}
	if len(ctx.Tower.Qi) != len(ctx.Primes) {
		t.Error("tower limb count differs from the prime chain")
	}
	for i, q := range ctx.Primes {
		if ctx.Limb(i).Q != q {
			t.Errorf("limb %d modulus %d != prime %d", i, ctx.Limb(i).Q, q)
		}
	}
	if ctx.Special == 0 || ctx.Tower.P == nil || ctx.Tower.P.Q != ctx.Special {
		t.Error("special prime missing from the tower")
	}
	for _, q := range ctx.Primes {
		if ctx.Special < q {
			t.Errorf("special prime %d below chain prime %d", ctx.Special, q)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(1))
	z := randomSlots(rng, ctx.Params.Slots())
	pt, err := enc.Encode(z, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(pt)
	if errv := maxSlotError(z, got); errv > 1e-4 {
		t.Errorf("encode/decode error %v", errv)
	}
}

func TestEncodeRejectsTooManyValues(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	z := make([]complex128, ctx.Params.Slots()+1)
	if _, err := enc.Encode(z, 0); err == nil {
		t.Error("oversized slot vector accepted")
	}
	if _, err := enc.EncodeAtLevel(z[:1], 0, 5); err == nil {
		t.Error("bad level accepted")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 8)

	rng := rand.New(rand.NewSource(2))
	z := randomSlots(rng, ctx.Params.Slots())
	pt, err := enc.Encode(z, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)
	got := enc.Decode(ev.Decrypt(sk, ct))
	if errv := maxSlotError(z, got); errv > 1e-3 {
		t.Errorf("enc/dec error %v", errv)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 3)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 4)

	rng := rand.New(rand.NewSource(5))
	a := randomSlots(rng, ctx.Params.Slots())
	b := randomSlots(rng, ctx.Params.Slots())
	pta, _ := enc.Encode(a, 0)
	ptb, _ := enc.Encode(b, 0)
	cta := ev.Encrypt(pk, pta)
	ctb := ev.Encrypt(pk, ptb)

	sum, err := ev.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if errv := maxSlotError(want, enc.Decode(ev.Decrypt(sk, sum))); errv > 1e-3 {
		t.Errorf("add error %v", errv)
	}

	diff, err := ev.Sub(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] - b[i]
	}
	if errv := maxSlotError(want, enc.Decode(ev.Decrypt(sk, diff))); errv > 1e-3 {
		t.Errorf("sub error %v", errv)
	}
}

func TestPlaintextOps(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 3)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 4)

	rng := rand.New(rand.NewSource(6))
	a := randomSlots(rng, ctx.Params.Slots())
	b := randomSlots(rng, ctx.Params.Slots())
	pta, _ := enc.Encode(a, 0)
	ptb, _ := enc.Encode(b, 0)
	ct := ev.Encrypt(pk, pta)

	added, err := ev.AddPlain(ct, ptb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if errv := maxSlotError(want, enc.Decode(ev.Decrypt(sk, added))); errv > 1e-3 {
		t.Errorf("addplain error %v", errv)
	}

	mul, err := ev.MulPlain(ct, ptb)
	if err != nil {
		t.Fatal(err)
	}
	rescaled, err := ev.Rescale(mul)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if errv := maxSlotError(want, enc.Decode(ev.Decrypt(sk, rescaled))); errv > 0.01 {
		t.Errorf("mulplain error %v", errv)
	}
	if rescaled.Level != 0 {
		t.Errorf("rescaled level = %d, want 0", rescaled.Level)
	}
}

func TestMulRelinRescale(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 9)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 10)

	rng := rand.New(rand.NewSource(11))
	a := randomSlots(rng, ctx.Params.Slots())
	b := randomSlots(rng, ctx.Params.Slots())
	pta, _ := enc.Encode(a, 0)
	ptb, _ := enc.Encode(b, 0)
	cta := ev.Encrypt(pk, pta)
	ctb := ev.Encrypt(pk, ptb)

	prod, err := ev.MulRelin(cta, ctb, rlk)
	if err != nil {
		t.Fatal(err)
	}
	rescaled, err := ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if errv := maxSlotError(want, enc.Decode(ev.Decrypt(sk, rescaled))); errv > 0.02 {
		t.Errorf("mulrelin error %v", errv)
	}
	// Scale returns near Δ: within the prime-vs-power-of-two slack.
	if ratio := rescaled.Scale / ctx.Params.Scale(); ratio < 0.9 || ratio > 1.2 {
		t.Errorf("rescaled scale ratio %v", ratio)
	}
}

func TestMulRelinRequiresKey(t *testing.T) {
	ctx := testContext(t)
	ev := NewEvaluator(ctx, 1)
	ct := &Ciphertext{C0: ctx.Tower.NewPoly(2), C1: ctx.Tower.NewPoly(2), Scale: 1, Level: 1}
	if _, err := ev.MulRelin(ct, ct, nil); err == nil {
		t.Error("nil relin key accepted")
	}
}

func TestLevelMismatchRejected(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 2)
	pt, _ := enc.EncodeReal([]float64{1}, 0)
	ct := ev.Encrypt(pk, pt)
	dropped, err := ev.DropLevel(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Add(ct, dropped); err == nil {
		t.Error("level mismatch accepted by Add")
	}
	_ = sk
}

func TestDropLevelPreservesMessage(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 2)

	vals := []float64{0.5, -0.25, 0.125}
	pt, err := enc.EncodeReal(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)
	dropped, err := ev.DropLevel(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReal(ev.Decrypt(sk, dropped))
	for i, want := range vals {
		if math.Abs(got[i]-want) > 1e-3 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
	if _, err := ev.DropLevel(dropped, 1); err == nil {
		t.Error("raising level accepted")
	}
}

func TestRescaleAtBottomRejected(t *testing.T) {
	ctx := testContext(t)
	ev := NewEvaluator(ctx, 1)
	ct := &Ciphertext{C0: ctx.Tower.NewPoly(1), C1: ctx.Tower.NewPoly(1), Scale: 1, Level: 0}
	if _, err := ev.Rescale(ct); err == nil {
		t.Error("rescale below level 0 accepted")
	}
}

func TestTrivialCiphertext(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	ev := NewEvaluator(ctx, 2)
	vals := []float64{0.75, -0.5}
	pt, err := enc.EncodeReal(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Trivial(pt)
	got := enc.DecodeReal(ev.Decrypt(sk, ct))
	for i, want := range vals {
		if math.Abs(got[i]-want) > 1e-4 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
}

// TestEncryptedDotProduct runs the paper's workload shape: a linear model
// evaluated on encrypted features (MulPlain + Rescale + Add chain).
func TestEncryptedDotProduct(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 21)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 22)

	features := []float64{0.3, -0.7, 0.2, 0.9}
	weights := []float64{0.5, 0.25, -1.0, 0.1}
	ptF, err := enc.EncodeReal(features, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, ptF)
	ptW, err := enc.EncodeReal(weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ev.MulPlain(ct, ptW)
	if err != nil {
		t.Fatal(err)
	}
	rescaled, err := ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReal(ev.Decrypt(sk, rescaled))
	for i := range features {
		want := features[i] * weights[i]
		if math.Abs(got[i]-want) > 0.01 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestNoiseBudgetAcrossDepth2(t *testing.T) {
	p, err := NewParams(8, 30, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 32)

	vals := []float64{0.5, -0.5, 0.25}
	pt, err := enc.EncodeReal(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)
	// Square twice: x → x² → x⁴ across both levels.
	sq, err := ev.MulRelin(ct, ct, rlk)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := ev.MulRelin(sq, sq, rlk)
	if err != nil {
		t.Fatal(err)
	}
	quad, err = ev.Rescale(quad)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReal(ev.Decrypt(sk, quad))
	for i, v := range vals {
		want := math.Pow(v, 4)
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("slot %d: x⁴ = %v, want %v", i, got[i], want)
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	ctx := testContext(b)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 2)
	pt, _ := enc.EncodeReal([]float64{0.5}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Encrypt(pk, pt)
	}
}

func BenchmarkMulRelin(b *testing.B) {
	ctx := testContext(b)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 2)
	pt, _ := enc.EncodeReal([]float64{0.5}, 0)
	ct := ev.Encrypt(pk, pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MulRelin(ct, ct, rlk); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: encoding is linear — Decode(Encode(a) + Encode(b)) ≈ a + b.
func TestEncoderLinearity(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		a := randomSlots(rng, ctx.Params.Slots())
		b := randomSlots(rng, ctx.Params.Slots())
		pa, err := enc.Encode(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := enc.Encode(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := &Plaintext{Value: ctx.Tower.NewPoly(pa.Level + 1), Scale: pa.Scale, Level: pa.Level}
		for i := range sum.Value {
			ctx.Limb(i).Add(pa.Value[i], pb.Value[i], sum.Value[i])
		}
		got := enc.Decode(sum)
		for i := range a {
			if cmplx.Abs(got[i]-(a[i]+b[i])) > 1e-3 {
				t.Fatalf("trial %d slot %d: %v != %v", trial, i, got[i], a[i]+b[i])
			}
		}
	}
}

// Property: ciphertext addition commutes with plaintext addition across
// random messages (homomorphism check via testing/quick-style loop).
func TestAdditiveHomomorphismRandom(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 55)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 56)
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 8; trial++ {
		a := randomSlots(rng, 16)
		b := randomSlots(rng, 16)
		pa, _ := enc.Encode(a, 0)
		pb, _ := enc.Encode(b, 0)
		sum, err := ev.Add(ev.Encrypt(pk, pa), ev.Encrypt(pk, pb))
		if err != nil {
			t.Fatal(err)
		}
		got := enc.Decode(ev.Decrypt(sk, sum))
		for i := range a {
			if cmplx.Abs(got[i]-(a[i]+b[i])) > 5e-3 {
				t.Fatalf("trial %d slot %d: %v vs %v", trial, i, got[i], a[i]+b[i])
			}
		}
	}
}

// TestCiphertextCopyIndependence guards against aliasing bugs in Copy.
func TestCiphertextCopyIndependence(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := NewEvaluator(ctx, 2)
	pt, _ := enc.EncodeReal([]float64{0.5}, 0)
	ct := ev.Encrypt(pk, pt)
	dup := ct.Copy()
	dup.C0[0][0] = 12345
	dup.Scale = 1
	if ct.C0[0][0] == 12345 || ct.Scale == 1 {
		t.Error("Copy shares state")
	}
	_ = sk
}

// TestIntoVariantsMatchAllocating checks the zero-allocation Into APIs
// against their allocating counterparts, including aliasing the output
// with an operand.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 41)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 42)

	rng := rand.New(rand.NewSource(43))
	a := randomSlots(rng, ctx.Params.Slots())
	b := randomSlots(rng, ctx.Params.Slots())
	pta, _ := enc.Encode(a, 0)
	ptb, _ := enc.Encode(b, 0)
	cta := ev.Encrypt(pk, pta)
	ctb := ev.Encrypt(pk, ptb)

	eq := func(name string, x, y *Ciphertext) {
		t.Helper()
		if x.Level != y.Level || x.Scale != y.Scale {
			t.Fatalf("%s: level/scale mismatch", name)
		}
		for i := 0; i <= x.Level; i++ {
			for j := range x.C0[i] {
				if x.C0[i][j] != y.C0[i][j] || x.C1[i][j] != y.C1[i][j] {
					t.Fatalf("%s: limb %d coeff %d differs", name, i, j)
				}
			}
		}
	}

	want, err := ev.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.NewCiphertext(cta.Level)
	if err := ev.AddInto(cta, ctb, got); err != nil {
		t.Fatal(err)
	}
	eq("AddInto", got, want)

	want, err = ev.MulPlain(cta, ptb)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MulPlainInto(cta, ptb, got); err != nil {
		t.Fatal(err)
	}
	eq("MulPlainInto", got, want)
	aliased := cta.Copy()
	if err := ev.MulPlainInto(aliased, ptb, aliased); err != nil {
		t.Fatal(err)
	}
	eq("MulPlainInto aliased", aliased, want)

	want, err = ev.MulRelin(cta, ctb, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MulRelinInto(cta, ctb, rlk, got); err != nil {
		t.Fatal(err)
	}
	eq("MulRelinInto", got, want)
	aliased = cta.Copy()
	if err := ev.MulRelinInto(aliased, ctb, rlk, aliased); err != nil {
		t.Fatal(err)
	}
	eq("MulRelinInto aliased", aliased, want)

	want, err = ev.Rescale(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.RescaleInto(got, got); err != nil {
		t.Fatal(err)
	}
	eq("RescaleInto aliased", got, want)

	want, err = ev.DropLevel(cta, 0)
	if err != nil {
		t.Fatal(err)
	}
	dropped := ctx.NewCiphertext(0)
	if err := ev.DropLevelInto(cta, 0, dropped); err != nil {
		t.Fatal(err)
	}
	eq("DropLevelInto", dropped, want)
}

// TestDecryptDecodeIntoMatchesAllocating pins the reusing forms to the
// allocating ones bit for bit — through a plaintext that shrinks to a
// lower level and grows back, and a prefix-only decode — and holds them
// to the limb fan-out's one closure once the buffers are warm.
func TestDecryptDecodeIntoMatchesAllocating(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 44)
	sk := kg.GenSecretKey()
	ev := NewEvaluator(ctx, 45)
	pt0, err := enc.Encode(randomSlots(rand.New(rand.NewSource(46)), ctx.Params.Slots()), 0)
	if err != nil {
		t.Fatal(err)
	}
	top := ev.Encrypt(kg.GenPublicKey(sk), pt0)
	low, err := ev.DropLevel(top, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pt Plaintext
	work := make([]complex128, ctx.Params.Slots())
	out := make([]float64, ctx.Params.Slots())
	for _, ct := range []*Ciphertext{top, low, top} {
		want := ev.Decrypt(sk, ct)
		if err := ev.DecryptInto(sk, ct, &pt); err != nil {
			t.Fatal(err)
		}
		if pt.Level != want.Level || pt.Scale != want.Scale || len(pt.Value) != len(want.Value) {
			t.Fatalf("level %d: plaintext level/scale/limbs %d/%g/%d, want %d/%g/%d",
				ct.Level, pt.Level, pt.Scale, len(pt.Value), want.Level, want.Scale, len(want.Value))
		}
		for i := range want.Value {
			for j := range want.Value[i] {
				if pt.Value[i][j] != want.Value[i][j] {
					t.Fatalf("level %d: limb %d coeff %d differs", ct.Level, i, j)
				}
			}
		}
		wantVals := enc.DecodeReal(want)
		for _, n := range []int{len(out), 3} {
			if err := enc.DecodeRealInto(&pt, work, out[:n]); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < n; j++ {
				if math.Float64bits(out[j]) != math.Float64bits(wantVals[j]) {
					t.Fatalf("level %d, %d slots: slot %d = %v, want %v", ct.Level, n, j, out[j], wantVals[j])
				}
			}
		}
	}
	if err := enc.DecodeRealInto(&pt, work[1:], out); err == nil {
		t.Error("short FFT buffer accepted")
	}
	if err := enc.DecodeRealInto(&pt, work, make([]float64, ctx.Params.Slots()+1)); err == nil {
		t.Error("more values than slots accepted")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := ev.DecryptInto(sk, top, &pt); err != nil {
			t.Fatal(err)
		}
		if err := enc.DecodeRealInto(&pt, work, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("warm DecryptInto + DecodeRealInto allocate %v objects, want at most the fan-out closure", allocs)
	}
}

// TestMulRelinSquareAliasing covers squaring with both operands and the
// output all aliased — the self-multiply pattern evaluator users hit.
func TestMulRelinSquareAliasing(t *testing.T) {
	ctx := testContext(t)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 44)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 45)

	vals := []float64{0.5, -0.25, 0.75}
	pt, err := enc.EncodeReal(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)
	want, err := ev.MulRelin(ct, ct, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.MulRelinInto(ct, ct, rlk, ct); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= ct.Level; i++ {
		for j := range ct.C0[i] {
			if ct.C0[i][j] != want.C0[i][j] || ct.C1[i][j] != want.C1[i][j] {
				t.Fatalf("self-square aliased limb %d coeff %d differs", i, j)
			}
		}
	}
}

func BenchmarkMulRelinInto(b *testing.B) {
	ctx := testContext(b)
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 2)
	pt, _ := enc.EncodeReal([]float64{0.5}, 0)
	ct := ev.Encrypt(pk, pt)
	out := ctx.NewCiphertext(ct.Level)
	_ = sk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.MulRelinInto(ct, ct, rlk, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeySwitch measures the gadget decomposition + key fold alone
// (the dominant cost of MulRelin beyond the tensor product).
func BenchmarkKeySwitch(b *testing.B) {
	ctx := testContext(b)
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 2)
	level := ctx.MaxLevel()
	rng := rand.New(rand.NewSource(3))
	d2 := ctx.Tower.NewPoly(level + 1)
	for i := range d2 {
		ctx.Limb(i).UniformPolyInto(rng, d2[i])
	}
	d2NTT := d2.Copy()
	for i := range d2NTT {
		ctx.Limb(i).NTT(d2NTT[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.keySwitch(d2, d2NTT, rlk.Parts, level)
	}
}

// TestParallelPathsLargeRing runs the full evaluator pipeline at N = 4096,
// above ring.ParallelMinN, so the goroutine fan-out branches in keygen,
// Encrypt, MulPlainInto and MulRelinInto execute (the small-ring tests
// never reach them). Run with -race to check the scratch-buffer
// disjointness of the parallel sections.
func TestParallelPathsLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large-ring keygen in -short mode")
	}
	p, err := NewParams(12, 35, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() < ring.ParallelMinN {
		t.Fatalf("test ring N=%d below ParallelMinN=%d: parallel paths not covered", p.N(), ring.ParallelMinN)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 61)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 62)

	vals := []float64{0.5, -0.25, 0.75, 0.1}
	pt, err := enc.EncodeReal(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)

	scaled, err := ev.MulPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	if scaled, err = ev.Rescale(scaled); err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReal(ev.Decrypt(sk, scaled))
	for i, v := range vals {
		if math.Abs(got[i]-v*v) > 0.01 {
			t.Errorf("MulPlain slot %d = %v, want %v", i, got[i], v*v)
		}
	}

	sq, err := ev.MulRelin(ct, ct, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if sq, err = ev.Rescale(sq); err != nil {
		t.Fatal(err)
	}
	got = enc.DecodeReal(ev.Decrypt(sk, sq))
	for i, v := range vals {
		if math.Abs(got[i]-v*v) > 0.01 {
			t.Errorf("MulRelin slot %d = %v, want %v", i, got[i], v*v)
		}
	}
}

// TestDepth4SquareChain exercises the full RNS pipeline at depth 4: four
// MulRelin+Rescale squarings walk the ciphertext from level 4 to level 0,
// crossing every rescale and hybrid key-switch path.
func TestDepth4SquareChain(t *testing.T) {
	p, err := NewParams(10, 60, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 9)
	enc := NewEncoder(ctx)
	// Values whose 16th powers stay far below q_0/Δ ≈ 2^10, so the final
	// level-0 decode cannot wrap.
	vals := []float64{0.9, -1.1, 1.05, 0.5}
	pt, err := enc.EncodeReal(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := ev.Encrypt(pk, pt)
	dec := enc.DecodeReal(ev.Decrypt(sk, ct))
	for i, v := range vals {
		if math.Abs(dec[i]-v) > 1e-4 {
			t.Fatalf("enc/dec slot %d: got %g want %g", i, dec[i], v)
		}
	}
	cur := ct
	want := make([]float64, len(vals))
	copy(want, vals)
	for d := 0; d < 4; d++ {
		m, err := ev.MulRelin(cur, cur, rlk)
		if err != nil {
			t.Fatal(err)
		}
		cur, err = ev.Rescale(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] *= want[i]
		}
		got := enc.DecodeReal(ev.Decrypt(sk, cur))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-2*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("depth %d slot %d: got %g want %g (level %d scale %g)", d, i, got[i], want[i], cur.Level, cur.Scale)
			}
		}
	}
	if cur.Level != 0 {
		t.Fatalf("chain ended at level %d, want 0", cur.Level)
	}
}
