package transcipher_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/transcipher"
)

// reference is the unfused evaluation, kept as the oracle the fused
// kernel must match bit for bit: the same complex packing of the
// quadratic factors, z_j = (B_j + C_j)/2 + i·(B_j − C_j)/2, evaluated as
// one MulPlainInto → AddInto per key coordinate with per-coordinate level
// drops, and the square through the general tensor (MulRelin of z and a
// copy of z), with allocating ciphertext arithmetic around it.
type reference struct {
	c   *transcipher.Cipher
	ctx *ckks.Context
	enc *ckks.Encoder
	ev  *ckks.Evaluator
	rlk *ckks.RelinKey
}

func (r *reference) keystream(encKey []*ckks.Ciphertext, a, b, cc [][]float64) (*ckks.Ciphertext, error) {
	ev, top := r.ev, r.ctx.MaxLevel()
	linearForm := func(coeff [][]complex128, at int) (*ckks.Ciphertext, error) {
		acc := r.ctx.NewCiphertext(at)
		term := r.ctx.NewCiphertext(at)
		dropped := r.ctx.NewCiphertext(at)
		for j := range coeff {
			pt, err := r.enc.EncodeAtLevel(coeff[j], r.c.Scale(), at)
			if err != nil {
				return nil, err
			}
			ctj := encKey[j]
			if ctj.Level != at {
				if err := ev.DropLevelInto(ctj, at, dropped); err != nil {
					return nil, err
				}
				ctj = dropped
			}
			if j == 0 {
				if err := ev.MulPlainInto(ctj, pt, acc); err != nil {
					return nil, err
				}
				continue
			}
			if err := ev.MulPlainInto(ctj, pt, term); err != nil {
				return nil, err
			}
			if err := ev.AddInto(acc, term, acc); err != nil {
				return nil, err
			}
		}
		if err := ev.RescaleInto(acc, acc); err != nil {
			return nil, err
		}
		return acc, nil
	}
	z := make([][]complex128, len(b))
	lin := make([][]complex128, len(a))
	for j := range z {
		z[j] = make([]complex128, len(b[j]))
		for s, bs := range b[j] {
			cs := cc[j][s]
			z[j][s] = complex((bs+cs)/2, (bs-cs)/2)
		}
		lin[j] = make([]complex128, len(a[j]))
		for s, as := range a[j] {
			lin[j][s] = complex(as, 0)
		}
	}
	zk, err := linearForm(z, top)
	if err != nil {
		return nil, err
	}
	quad, err := ev.MulRelin(zk, zk.Copy(), r.rlk)
	if err != nil {
		return nil, err
	}
	if quad, err = ev.Rescale(quad); err != nil {
		return nil, err
	}
	ak, err := linearForm(lin, top-1)
	if err != nil {
		return nil, err
	}
	return ev.Add(ak, quad)
}

// affine is the unfused TranscipherAffineWith; nil weights and bias give
// unfused plain transciphering.
func (r *reference) affine(encKey []*ckks.Ciphertext, nonce []byte, block uint32, masked, weights, bias []float64) (*ckks.Ciphertext, error) {
	a, b, cc, err := r.c.CoeffBlock(nonce, block)
	if err != nil {
		return nil, err
	}
	slots := r.c.Slots()
	wAt := func(s int) float64 {
		if s < len(weights) {
			return weights[s]
		}
		return 1
	}
	for j := range a {
		for s := 0; s < slots; s++ {
			a[j][s] *= wAt(s)
			b[j][s] *= wAt(s)
		}
	}
	ks, err := r.keystream(encKey, a, b, cc)
	if err != nil {
		return nil, err
	}
	plain := make([]float64, slots)
	for s := range plain {
		if s < len(masked) {
			plain[s] = wAt(s) * masked[s]
		}
		if s < len(bias) {
			plain[s] += bias[s]
		}
	}
	pt, err := r.enc.EncodeRealAtLevel(plain, ks.Scale, ks.Level)
	if err != nil {
		return nil, err
	}
	return r.ev.Sub(r.ev.Trivial(pt), ks)
}

func sameCiphertext(t *testing.T, what string, got, want *ckks.Ciphertext) {
	t.Helper()
	if got.Level != want.Level || got.Scale != want.Scale {
		t.Fatalf("%s: level/scale %d/%g, want %d/%g", what, got.Level, got.Scale, want.Level, want.Scale)
	}
	if len(got.C0) != want.Level+1 || len(got.C1) != want.Level+1 {
		t.Fatalf("%s: %d/%d limbs at level %d", what, len(got.C0), len(got.C1), want.Level)
	}
	for i := range want.C0 {
		for k := range want.C0[i] {
			if got.C0[i][k] != want.C0[i][k] || got.C1[i][k] != want.C1[i][k] {
				t.Fatalf("%s: differs at limb %d coefficient %d", what, i, k)
			}
		}
	}
}

// fixture is one profile's key material and a masked block.
type fixture struct {
	ref                   reference
	sk                    *ckks.SecretKey
	key                   []float64          // the symmetric key
	encKey                []*ckks.Ciphertext // coefficient form, as uploaded
	installed             []*ckks.Ciphertext // the same key after InstallKey
	nonce                 []byte
	data                  []float64 // the block masked under key as block 7
	masked, weights, bias []float64
}

func newFixture(t testing.TB, id string) *fixture {
	t.Helper()
	prof, ok := profile.Default().Get(id)
	if !ok {
		t.Fatalf("no profile %q", id)
	}
	ctx, err := prof.Context()
	if err != nil {
		t.Fatal(err)
	}
	c, err := transcipher.New(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	fx := &fixture{
		ref:   reference{c: c, ctx: ctx, enc: ckks.NewEncoder(ctx), ev: ckks.NewEvaluator(ctx, 32), rlk: kg.GenRelinKey(sk)},
		sk:    sk,
		nonce: []byte("kernel-nonce"),
	}
	if fx.key, err = c.DeriveKey([]byte("kernel-test-key")); err != nil {
		t.Fatal(err)
	}
	if fx.encKey, err = c.EncryptKey(fx.ref.ev, pk, fx.key); err != nil {
		t.Fatal(err)
	}
	fx.installed = make([]*ckks.Ciphertext, len(fx.encKey))
	for j, ct := range fx.encKey {
		fx.installed[j] = ct.Copy()
	}
	if err := c.InstallKey(fx.installed); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	fx.data = make([]float64, c.Slots())
	fx.weights = make([]float64, c.Slots()/2) // shorter than the block: the tail passes through
	fx.bias = make([]float64, c.Slots()/4)
	for i := range fx.data {
		fx.data[i] = rng.Float64()*2 - 1
	}
	for i := range fx.weights {
		fx.weights[i] = rng.Float64()*3 - 1.5
	}
	for i := range fx.bias {
		fx.bias[i] = rng.Float64() - 0.5
	}
	if fx.masked, err = c.Mask(fx.key, fx.nonce, 7, fx.data); err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestKernelBitIdentity pins the fused NTT-domain kernel — complex
// linear forms and the squaring MulRelinInto — to its unfused
// MulPlainInto/AddInto/RescaleInto and general-tensor composition, limb
// for limb, on every registered profile, through every entry point, for a
// key in either form.
func TestKernelBitIdentity(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		fx := newFixture(t, id)
		c, r := fx.ref.c, &fx.ref
		ev := ckks.NewEvaluator(r.ctx, 34)
		sc := c.NewScratch()
		const block = 7

		wantAffine, err := r.affine(fx.encKey, fx.nonce, block, fx.masked, fx.weights, fx.bias)
		if err != nil {
			t.Fatal(err)
		}
		wantPlain, err := r.affine(fx.encKey, fx.nonce, block, fx.masked, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b, cc, err := c.CoeffBlock(fx.nonce, block)
		if err != nil {
			t.Fatal(err)
		}
		wantKS, err := r.keystream(fx.encKey, a, b, cc)
		if err != nil {
			t.Fatal(err)
		}

		forms := []struct {
			name string
			key  []*ckks.Ciphertext
		}{{"coefficient-form key", fx.encKey}, {"evaluation-form key", fx.installed}}
		for _, form := range forms {
			// Twice through the same scratch: the second pass reads
			// whatever the first left behind.
			for pass := 0; pass < 2; pass++ {
				what := fmt.Sprintf("%s, %s, pass %d", id, form.name, pass)
				got, err := c.TranscipherAffineWith(sc, ev, r.rlk, form.key, fx.nonce, block, fx.masked, fx.weights, fx.bias)
				if err != nil {
					t.Fatal(err)
				}
				sameCiphertext(t, what+": weights+bias", got, wantAffine)
				if got, err = c.TranscipherAffineWith(sc, ev, r.rlk, form.key, fx.nonce, block, fx.masked, nil, nil); err != nil {
					t.Fatal(err)
				}
				sameCiphertext(t, what+": nil weights", got, wantPlain)
			}
			got, err := c.TranscipherAffineWith(nil, ev, r.rlk, form.key, fx.nonce, block, fx.masked, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, id+", "+form.name+": nil scratch", got, wantPlain)
			if got, err = c.HomomorphicKeystream(ev, r.rlk, form.key, fx.nonce, block); err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, id+", "+form.name+": HomomorphicKeystream", got, wantKS)
		}
		// Serving from a coefficient-form key converts into the scratch,
		// never into the caller's ciphertexts.
		for j, ct := range fx.encKey {
			if ct.IsEvalForm() {
				t.Fatalf("%s: caller's key coordinate %d was converted in place", id, j)
			}
		}
	}
}

// TestInstallKeyRejectsMalformed feeds InstallKey the shapes a hostile
// Setup or Rekey can carry; each must fail typed before any transform
// touches it.
func TestInstallKeyRejectsMalformed(t *testing.T) {
	fx := newFixture(t, profile.IDLambda32k)
	c, ctx := fx.ref.c, fx.ref.ctx
	fresh := func() []*ckks.Ciphertext {
		out := make([]*ckks.Ciphertext, len(fx.encKey))
		for j, ct := range fx.encKey {
			out[j] = ct.Copy()
		}
		return out
	}
	cases := map[string]func(k []*ckks.Ciphertext) []*ckks.Ciphertext{
		"unreduced residue": func(k []*ckks.Ciphertext) []*ckks.Ciphertext {
			k[3].C1[2][5] = ctx.Primes[2]
			return k
		},
		"all-ones residue": func(k []*ckks.Ciphertext) []*ckks.Ciphertext {
			k[0].C0[0][0] = ^uint64(0)
			return k
		},
		"short limb": func(k []*ckks.Ciphertext) []*ckks.Ciphertext {
			k[1].C0[1] = k[1].C0[1][:len(k[1].C0[1])/2]
			return k
		},
		"missing limb": func(k []*ckks.Ciphertext) []*ckks.Ciphertext {
			k[2].C1 = k[2].C1[:len(k[2].C1)-1]
			return k
		},
		"lower level": func(k []*ckks.Ciphertext) []*ckks.Ciphertext {
			k[4].Level--
			k[4].C0, k[4].C1 = k[4].C0[:k[4].Level+1], k[4].C1[:k[4].Level+1]
			return k
		},
		"level beyond the chain": func(k []*ckks.Ciphertext) []*ckks.Ciphertext {
			k[5].Level = ctx.MaxLevel() + 1
			return k
		},
		"zero scale":     func(k []*ckks.Ciphertext) []*ckks.Ciphertext { k[6].Scale = 0; return k },
		"nil coordinate": func(k []*ckks.Ciphertext) []*ckks.Ciphertext { k[7] = nil; return k },
		"too few":        func(k []*ckks.Ciphertext) []*ckks.Ciphertext { return k[:len(k)-1] },
	}
	for name, mutate := range cases {
		if err := c.InstallKey(mutate(fresh())); !errors.Is(err, ckks.ErrMalformed) {
			t.Errorf("%s: InstallKey = %v, want ErrMalformed", name, err)
		}
	}
	if err := c.InstallKey(fx.installed); !errors.Is(err, ckks.ErrEvalForm) {
		t.Errorf("installing twice = %v, want ErrEvalForm", err)
	}
	// The one-shot path validates the same way, and a half-installed key
	// is refused rather than guessed at.
	ev := ckks.NewEvaluator(ctx, 35)
	bad := fresh()
	bad[3].C1[2][5] = ctx.Primes[2]
	if _, err := c.TranscipherAffineWith(nil, ev, fx.ref.rlk, bad, fx.nonce, 7, fx.masked, nil, nil); !errors.Is(err, ckks.ErrMalformed) {
		t.Errorf("serving an unreduced key = %v, want ErrMalformed", err)
	}
	mixed := fresh()
	mixed[0] = fx.installed[0]
	if _, err := c.TranscipherAffineWith(nil, ev, fx.ref.rlk, mixed, fx.nonce, 7, fx.masked, nil, nil); !errors.Is(err, ckks.ErrEvalForm) {
		t.Errorf("serving a half-installed key = %v, want ErrEvalForm", err)
	}
}

// TestSteadyStateAllocs gates the serve path's allocations at λ-128k:
// with a warm Scratch and an installed key, a block allocates its result
// ciphertext (the reply encoder owns it) and one closure per limb
// fan-out, nothing that scales with keyLen or N beyond that.
func TestSteadyStateAllocs(t *testing.T) {
	fx := newFixture(t, profile.IDLambda128k)
	c, r := fx.ref.c, &fx.ref
	ev := ckks.NewEvaluator(r.ctx, 36)
	sc := c.NewScratch()
	run := func() {
		if _, err := c.TranscipherAffineWith(sc, ev, r.rlk, fx.installed, fx.nonce, 7, fx.masked, fx.weights, fx.bias); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	// Measured 26 (2 result polys of 3 limbs + headers, the rest the one
	// closure ring.ForEach takes per fan-out: 2 linear forms, 3 rescales
	// of two fan-outs each, 1 squaring MulRelin, 2 adds; 29 with a third
	// linear form and its rescale, 237 when each fan-out built a task
	// slice). The bound leaves one object for runtime drift, not for a
	// regression: one stray per-coordinate allocation is +8, one
	// per-coordinate-per-limb +40.
	const bound = 27
	if allocs := testing.AllocsPerRun(5, run); allocs > bound {
		t.Errorf("steady-state block allocates %v objects, bound %d", allocs, bound)
	}
}
