package ckks

import (
	"errors"
	"fmt"
	"math/rand"

	"quhe/internal/he/ring"
)

// Key material is stored per limb in the NTT domain and Montgomery form:
// evaluator hot paths (Encrypt, Decrypt, MulRelin key switching) then
// consume keys with a single fused Montgomery multiply-accumulate per
// coefficient and never transform key polynomials per operation. Both
// endpoints of the edge protocol run this package, and the wire codec
// (wire.go) carries the limbs as stored.
//
// Secrets and errors are sampled as small integers once per coefficient
// and reduced into every limb, so one RNS key is one RLWE sample over the
// composite modulus (the limbs are CRT views of the same integers, not
// independent samples). Uniform polynomials are the exception: sampling
// each limb independently IS the uniform distribution over the composite
// modulus, by CRT — and since the NTT and the Montgomery map are
// bijections of a limb, a uniform key component is drawn directly as
// stored (NTT domain, Montgomery form) and never transformed.

// SecretKey is the RLWE secret: one ternary polynomial over the extended
// basis QP (chain limbs 0..Depth, then the special limb last), NTT
// domain, Montgomery form.
type SecretKey struct {
	S ring.RNSPoly
}

// PublicKey is the RLWE encryption key (p0, p1) = (−a·s + e, a) over the
// chain limbs, NTT domain, Montgomery form. Level-ℓ encryption uses limbs
// 0..ℓ, which stay valid truncations of the top-level key.
type PublicKey struct {
	P0, P1 ring.RNSPoly
}

// RelinKey relinearizes degree-2 ciphertexts by hybrid key switching.
// Part j is an RLWE sample over the extended basis QP carrying the j-th
// RNS gadget of P·s²:
//
//	rlk_j = (−a_j·s + e_j + P·u_j·s², a_j),  u_j ≡ δ_ij (mod q_i), u_j ≡ 0 (mod P),
//
// so folding the digits D_j = [d2]_{q_j} through the parts accumulates
// P·d2·s² (+ small noise) over QP, and dividing by P (ModDown) returns it
// to the chain with the noise scaled away. Parts[j][c][t]: digit j,
// component c ∈ {0,1}, limb t (chain limbs then the special limb), NTT
// domain, Montgomery form.
type RelinKey struct {
	Parts [][2]ring.RNSPoly
}

// ErrKeyShape reports key-switching material built for another ring: the
// wrong digit count, limb count or degree for the context.
var ErrKeyShape = errors.New("ckks: switching key does not fit the context")

// CheckSwitchingKey validates a hybrid key-switch gadget (RelinKey.Parts,
// GaloisKey.Parts) from outside the trust boundary: one digit per chain
// prime and every component over the extended basis QP with N
// coefficients per limb (ErrKeyShape otherwise), every residue below its
// modulus (ErrMalformed otherwise). keySwitch indexes digits and limbs by
// the context's counts and its lazy-reduction MACs assume reduced inputs,
// so a key that fails here would panic or corrupt a worker mid-evaluation.
func (c *Context) CheckSwitchingKey(parts [][2]ring.RNSPoly) error {
	digits, n := len(c.Primes), c.Params.N()
	if len(parts) != digits {
		return fmt.Errorf("%w: %d digits, want %d", ErrKeyShape, len(parts), digits)
	}
	for j := range parts {
		for _, comp := range parts[j] {
			if len(comp) != digits+1 {
				return fmt.Errorf("%w: digit %d spans %d limbs, want %d", ErrKeyShape, j, len(comp), digits+1)
			}
			for t, limb := range comp {
				if len(limb) != n {
					return fmt.Errorf("%w: digit %d limb %d holds %d coefficients, want %d", ErrKeyShape, j, t, len(limb), n)
				}
				q := c.Special
				if t < digits {
					q = c.Primes[t]
				}
				for _, v := range limb {
					if v >= q {
						return fmt.Errorf("%w: unreduced residue in digit %d limb %d", ErrMalformed, j, t)
					}
				}
			}
		}
	}
	return nil
}

// KeyGenerator derives CKKS keys from a seeded RNG. Not safe for
// concurrent use.
type KeyGenerator struct {
	ctx *Context
	rng *rand.Rand
}

// NewKeyGenerator builds a key generator over the context. seed=0 selects
// a fixed default so tests are reproducible.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	if seed == 0 {
		seed = 1
	}
	return &KeyGenerator{ctx: ctx, rng: rand.New(rand.NewSource(seed))}
}

// qpMod returns the modulus of extended-basis limb t: chain limb t, or
// the special prime for t == len(Primes).
func (kg *KeyGenerator) qpMod(t int) *ring.Modulus {
	if t < len(kg.ctx.Primes) {
		return kg.ctx.Tower.Qi[t]
	}
	return kg.ctx.Tower.P
}

// ternaryInts fills out with coefficients from {−1, 0, 1}, matching the
// draw order of ring.TernaryPolyInto.
func (kg *KeyGenerator) ternaryInts(out []int64) {
	for i := range out {
		switch kg.rng.Intn(3) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = -1
		}
	}
}

// gaussianInts fills out with rounded-Gaussian error coefficients.
func (kg *KeyGenerator) gaussianInts(out []int64) {
	for i := range out {
		out[i] = int64(kg.rng.NormFloat64()*kg.ctx.Params.Sigma + 0.5)
	}
}

// GenSecretKey samples a ternary secret and spreads it over QP.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	n := kg.ctx.Params.N()
	vals := make([]int64, n)
	kg.ternaryInts(vals)
	s := make(ring.RNSPoly, len(kg.ctx.Primes)+1)
	ring.ForEach(n, len(s), func(t int) {
		mod := kg.qpMod(t)
		p := make(ring.Poly, n)
		for j, v := range vals {
			p[j] = mod.FromInt64(v)
		}
		mod.NTT(p)
		mod.MForm(p, p)
		s[t] = p
	})
	return &SecretKey{S: s}
}

// GenPublicKey builds (−a·s + e, a) over the chain limbs. All randomness
// is drawn before the per-limb fan-out so the RNG stream order is fixed.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	n := kg.ctx.Params.N()
	limbs := len(kg.ctx.Primes)
	pk := &PublicKey{P0: make(ring.RNSPoly, limbs), P1: make(ring.RNSPoly, limbs)}
	for t := 0; t < limbs; t++ {
		pk.P1[t] = kg.ctx.Tower.Qi[t].UniformPoly(kg.rng) // â, drawn as stored
	}
	e := make([]int64, n)
	kg.gaussianInts(e)
	ring.ForEach(n, limbs, func(t int) {
		pk.P0[t] = kg.zeroSample(t, pk.P1[t], e, sk)
	})
	return pk
}

// zeroSample finishes one limb of an RLWE zero-sample under sk from its
// pre-drawn randomness and returns b = −â·ŝ + ê as stored (NTT domain,
// Montgomery form). a is read as the stored second component â itself: a
// uniform limb is uniform in either domain and either form, so it is drawn
// where it is kept and never transformed, and its Montgomery product with
// ŝ is already in stored form — a caller adds a gadget term in that form.
func (kg *KeyGenerator) zeroSample(t int, a ring.Poly, e []int64, sk *SecretKey) (b ring.Poly) {
	n := len(a)
	mod := kg.qpMod(t)
	b = make(ring.Poly, n)
	mod.MulCoeffwiseMontgomery(a, sk.S[t], b) // â·ŝ, Montgomery form
	eh := make(ring.Poly, n)
	for k, v := range e {
		eh[k] = mod.FromInt64(v)
	}
	mod.NTT(eh)
	mod.MForm(eh, eh)
	mod.Sub(eh, b, b)
	return b
}

// GenRelinKey builds the hybrid key-switch key from s² to s; see
// genSwitchingKey.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	return &RelinKey{Parts: kg.genSwitchingKey(sk, func(j int, out ring.Poly) {
		kg.qpMod(j).MulCoeffwiseMontgomery(sk.S[j], sk.S[j], out) // ŝ², Montgomery form
	})}
}

// genSwitchingKey builds the hybrid key-switch gadget from a secret g to
// sk: one part per chain limb, each an RLWE zero-sample over QP with
// (P mod q_j)·g added into limb j only. gadget(j, out) writes limb j of ĝ
// (NTT domain, Montgomery form) into out. Randomness is drawn up front
// (per digit: a over every QP limb, then e), so the digits × QP cells fan
// out deterministically over the worker pool.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, gadget func(j int, out ring.Poly)) [][2]ring.RNSPoly {
	ctx := kg.ctx
	n := ctx.Params.N()
	digits := len(ctx.Primes)
	qp := digits + 1

	es := make([][]int64, digits)
	parts := make([][2]ring.RNSPoly, digits)
	for j := 0; j < digits; j++ {
		parts[j] = [2]ring.RNSPoly{make(ring.RNSPoly, qp), make(ring.RNSPoly, qp)}
		for t := 0; t < qp; t++ {
			parts[j][1][t] = kg.qpMod(t).UniformPoly(kg.rng) // â_j, drawn as stored
		}
		es[j] = make([]int64, n)
		kg.gaussianInts(es[j])
	}
	ring.ForEach(n, digits*qp, func(k int) {
		j, t := k/qp, k%qp
		b := kg.zeroSample(t, parts[j][1][t], es[j], sk)
		if t == j {
			mod := kg.qpMod(t)
			g := make(ring.Poly, n)
			gadget(j, g)
			mod.MulScalar(g, ctx.Special%ctx.Primes[j], g) // a plain scalar keeps the form
			mod.Add(b, g, b)
		}
		parts[j][0][t] = b
	})
	return parts
}
