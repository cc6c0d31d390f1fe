package transcipher_test

import (
	"math"
	"slices"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
)

// Precision floors on the served parameter sets. A served block carries
// its data in the real parts of its slots; the imaginary parts hold the
// key-dependent (x²−y²)/2 of the complex quadratic form, which must stay
// small enough to leave the modulus headroom intact.
const (
	realFloor = 0x1p-33 // |Re − plaintext|: ≈36–38 bits measured
	imagBound = 0.5     // |Im| of a keystream slot
)

// decodeSlots decrypts ct and returns its complex slot values. The
// imaginary parts are the real parts of −i·m, and −i·m is m·(−X^{N/2}):
// X^{N/2} is i at every slot's root ζ^(5^j), since 5^j ≡ 1 mod 4.
func decodeSlots(fx *fixture, ct *ckks.Ciphertext) []complex128 {
	pt := fx.ref.ev.Decrypt(fx.sk, ct)
	re := fx.ref.enc.DecodeReal(pt)
	h := fx.ref.ctx.Params.N() / 2
	for i, limb := range pt.Value {
		lo := slices.Clone(limb[:h])
		copy(limb, limb[h:])
		fx.ref.ctx.Tower.Qi[i].Neg(lo, limb[h:])
	}
	z := make([]complex128, len(re))
	for s, im := range fx.ref.enc.DecodeReal(pt) {
		z[s] = complex(re[s], im)
	}
	return z
}

// TestHomomorphicKeystreamMatchesPlain is the core transciphering
// correctness property: on every registered profile, the server's
// homomorphically computed keystream decrypts to the client's plaintext
// keystream in its real parts, with bounded imaginary parts.
func TestHomomorphicKeystreamMatchesPlain(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		fx := newFixture(t, id)
		c := fx.ref.c
		want, err := c.Keystream(fx.key, fx.nonce, 0)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := c.HomomorphicKeystream(fx.ref.ev, fx.ref.rlk, fx.installed, fx.nonce, 0)
		if err != nil {
			t.Fatal(err)
		}
		if top := fx.ref.ctx.MaxLevel(); ks.Level != top-2 {
			t.Errorf("%s: keystream ciphertext at level %d, want %d", id, ks.Level, top-2)
		}
		worstRe, worstIm := 0.0, 0.0
		for s, z := range decodeSlots(fx, ks) {
			worstRe = max(worstRe, math.Abs(real(z)-want[s]))
			worstIm = max(worstIm, math.Abs(imag(z)))
		}
		t.Logf("%s: real parts %.1f bits, max |Im| %.3f", id, -math.Log2(worstRe), worstIm)
		if worstRe > realFloor {
			t.Errorf("%s: homomorphic keystream error %g, floor %g", id, worstRe, realFloor)
		}
		if worstIm > imagBound {
			t.Errorf("%s: keystream imaginary part %g, bound %g", id, worstIm, imagBound)
		}
	}
}

// TestTranscipherEndToEnd replays §III-A on every registered profile:
// the client masks data under the QKD key, the server transciphers, and
// the result decrypts to the original data in its real parts — plainly
// and with the affine model fused in.
func TestTranscipherEndToEnd(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		fx := newFixture(t, id)
		c := fx.ref.c
		cases := []struct {
			name          string
			weights, bias []float64
		}{{"plain", nil, nil}, {"affine", fx.weights, fx.bias}}
		for _, tc := range cases {
			ct, err := c.TranscipherAffineWith(nil, fx.ref.ev, fx.ref.rlk, fx.installed, fx.nonce, 7, fx.masked, tc.weights, tc.bias)
			if err != nil {
				t.Fatal(err)
			}
			worst, worstIm := 0.0, 0.0
			for s, z := range decodeSlots(fx, ct) {
				want := fx.data[s]
				if s < len(tc.weights) {
					want *= tc.weights[s]
				}
				if s < len(tc.bias) {
					want += tc.bias[s]
				}
				worst = max(worst, math.Abs(real(z)-want))
				worstIm = max(worstIm, math.Abs(imag(z)))
			}
			t.Logf("%s, %s: real parts %.1f bits, max |Im| %.3f", id, tc.name, -math.Log2(worst), worstIm)
			if worst > realFloor {
				t.Errorf("%s, %s: transciphering error %g, floor %g", id, tc.name, worst, realFloor)
			}
			if worstIm > imagBound {
				t.Errorf("%s, %s: served imaginary part %g, bound %g", id, tc.name, worstIm, imagBound)
			}
		}
	}
}
