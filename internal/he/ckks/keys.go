package ckks

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"quhe/internal/he/ring"
)

// Key material is stored per limb in the NTT domain and Montgomery form:
// evaluator hot paths (Encrypt, Decrypt, MulRelinInto key switching) then
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
// stored (NTT domain, Montgomery form) and never transformed. A switching
// key's uniform half is not drawn from the generator's RNG at all: it is
// expanded from a per-key 32-byte seed by a PRG (expandUniform), straight
// into the key's storage, so the wire carries the seed instead of the
// half and the receiver expands the same limbs where it stores them.

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

// SeedSize is the byte length of a switching key's seed: the AES-256 key
// its uniform half expands from.
const SeedSize = 32

// SwitchingKey is a hybrid key-switch gadget from a secret g to s. Part j
// is an RLWE sample over the extended basis QP carrying the j-th RNS
// gadget of P·g:
//
//	swk_j = (−a_j·s + e_j + P·u_j·g, a_j),  u_j ≡ δ_ij (mod q_i), u_j ≡ 0 (mod P),
//
// so folding the digits D_j = [d]_{q_j} through the parts accumulates
// P·d·g (+ small noise) over QP, and dividing by P (ModDown) returns it
// to the chain with the noise scaled away. Parts[j][c][t]: digit j,
// component c ∈ {0,1}, limb t (chain limbs then the special limb), NTT
// domain, Montgomery form. Every a_j = Parts[j][1] is the expansion of
// Seed over QP (expandUniform), so Seed and QP stand in for component 1
// on the wire. Immutable once built; safe for concurrent readers.
type SwitchingKey struct {
	// QP lists the moduli of the basis the gadget spans: the chain primes,
	// then the special prime.
	QP    []uint64
	Seed  [SeedSize]byte
	Parts [][2]ring.RNSPoly
}

// RelinKey relinearizes degree-2 ciphertexts: the switching key from s²
// to s.
type RelinKey = SwitchingKey

// ErrKeyShape reports key-switching material built for another ring: the
// wrong digit count, limb count or degree for the context.
var ErrKeyShape = errors.New("ckks: switching key does not fit the context")

// CheckSwitchingKey validates a hybrid key-switch gadget (a RelinKey, a
// GaloisKey's SwitchingKey) from outside the trust boundary: the basis QP
// of the context, one digit per chain prime and every component over QP
// with N coefficients per limb (ErrKeyShape otherwise), and every
// component-0 residue below its modulus (ErrMalformed otherwise).
// Component 1 is not scanned: it was expanded under QP, so a key whose QP
// is the context's is reduced there by construction. keySwitch indexes
// digits and limbs by the context's counts and its lazy-reduction MACs
// assume reduced inputs, so a key that fails here would panic or corrupt
// a worker mid-evaluation.
func (c *Context) CheckSwitchingKey(k *SwitchingKey) error {
	digits, n := len(c.Primes), c.Params.N()
	if !slices.Equal(k.QP, c.qp) {
		return fmt.Errorf("%w: gadget over another basis", ErrKeyShape)
	}
	if len(k.Parts) != digits {
		return fmt.Errorf("%w: %d digits, want %d", ErrKeyShape, len(k.Parts), digits)
	}
	for j, part := range k.Parts {
		for _, comp := range part {
			if len(comp) != digits+1 {
				return fmt.Errorf("%w: digit %d spans %d limbs, want %d", ErrKeyShape, j, len(comp), digits+1)
			}
			for t, limb := range comp {
				if len(limb) != n {
					return fmt.Errorf("%w: digit %d limb %d holds %d coefficients, want %d", ErrKeyShape, j, t, len(limb), n)
				}
			}
		}
		for t, limb := range part[0] {
			q := c.qp[t]
			for _, v := range limb {
				if v >= q {
					return fmt.Errorf("%w: unreduced residue in digit %d limb %d", ErrMalformed, j, t)
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

	// Scratch one switching key's generation hands to the next: the errors
	// of every digit, one gadget term per digit, and the cell fan-out with
	// the key it is filling (sk, the gadget's automorphism table — nil for
	// the relinearization gadget ŝ² — and the parts), so a key generated
	// into reused storage allocates only its PRG.
	es    []int64
	g     []ring.Poly
	cell  func(c int)
	sk    *SecretKey
	tab   []uint32
	parts [][2]ring.RNSPoly
}

// NewKeyGenerator builds a key generator over the context. seed=0 selects
// a fixed default so tests are reproducible.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	if seed == 0 {
		seed = 1
	}
	kg := &KeyGenerator{ctx: ctx, rng: rand.New(rand.NewSource(seed))}
	kg.cell = kg.switchingCell
	return kg
}

// qpMod returns the modulus of extended-basis limb t: chain limb t, or
// the special prime for t == len(Primes).
func (kg *KeyGenerator) qpMod(t int) *ring.Modulus {
	if t < len(kg.ctx.Primes) {
		return kg.ctx.Tower.Qi[t]
	}
	return kg.ctx.Tower.P
}

// ternaryInts fills out with coefficients from {−1, 0, 1}, one rng.Intn(3)
// draw each: the secret and ephemeral distribution.
func ternaryInts(rng *rand.Rand, out []int64) {
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = -1
		}
	}
}

// gaussianInts fills out with rounded-Gaussian error coefficients of
// standard deviation sigma.
func gaussianInts(rng *rand.Rand, sigma float64, out []int64) {
	for i := range out {
		out[i] = int64(rng.NormFloat64()*sigma + 0.5)
	}
}

// GenSecretKey samples a ternary secret and spreads it over QP.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	n := kg.ctx.Params.N()
	vals := make([]int64, n)
	ternaryInts(kg.rng, vals)
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
	pk := &PublicKey{P0: kg.ctx.Tower.NewPoly(limbs), P1: make(ring.RNSPoly, limbs)}
	for t := 0; t < limbs; t++ {
		pk.P1[t] = kg.ctx.Tower.Qi[t].UniformPoly(kg.rng) // â, drawn as stored
	}
	e := make([]int64, n)
	gaussianInts(kg.rng, kg.ctx.Params.Sigma, e)
	ring.ForEach(n, limbs, func(t int) {
		kg.zeroSampleInto(t, pk.P1[t], e, sk, pk.P0[t])
	})
	return pk
}

// zeroSampleInto finishes one limb of an RLWE zero-sample under sk from
// its pre-drawn randomness, writing b = −â·ŝ + ê as stored (NTT domain,
// Montgomery form). a is read as the stored second component â itself: a
// uniform limb is uniform in either domain and either form, so it is drawn
// where it is kept and never transformed, and its Montgomery product with
// ŝ is already in stored form — a caller adds a gadget term in that form.
func (kg *KeyGenerator) zeroSampleInto(t int, a ring.Poly, e []int64, sk *SecretKey, b ring.Poly) {
	mod := kg.qpMod(t)
	for k, v := range e {
		b[k] = mod.FromInt64(v)
	}
	mod.NTT(b)
	mod.MForm(b, b)
	mod.MulCoeffwiseMontgomeryThenSub(a, sk.S[t], b)
}

// GenRelinKey builds the hybrid key-switch key from s² to s; see
// genSwitchingKeyInto.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	k := new(RelinKey)
	kg.genSwitchingKeyInto(sk, nil, k)
	return k
}

// genSwitchingKeyInto builds into k the hybrid key-switch gadget from a
// secret g to sk: one part per chain limb, each an RLWE zero-sample over
// QP with (P mod q_j)·g added into limb j only. g is σ(s) under the
// NTT-domain gather table tab, or s² for a nil tab. The seed and the
// errors are drawn from the RNG and the uniform half expanded up front,
// so the digits × QP cells then fan out deterministically over the worker
// pool. k's parts are overwritten in place when they have the context's
// shape, and replaced by a fresh gadget otherwise.
func (kg *KeyGenerator) genSwitchingKeyInto(sk *SecretKey, tab []uint32, k *SwitchingKey) {
	ctx := kg.ctx
	n := ctx.Params.N()
	digits := len(ctx.Primes)
	qp := digits + 1

	var seed [SeedSize]byte
	for i := 0; i < SeedSize; i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], kg.rng.Uint64())
	}
	if kg.es == nil {
		kg.es = make([]int64, digits*n)
		kg.g = make([]ring.Poly, digits)
		for j := range kg.g {
			kg.g[j] = make(ring.Poly, n)
		}
	}
	gaussianInts(kg.rng, kg.ctx.Params.Sigma, kg.es)
	if !gadgetFits(k.Parts, digits, qp, n) {
		k.Parts = newGadget(digits, qp, n)
	}
	expandUniform(&seed, ctx.qp, k.Parts)
	kg.sk, kg.tab, kg.parts = sk, tab, k.Parts
	ring.ForEach(n, digits*qp, kg.cell)
	kg.sk, kg.tab, kg.parts = nil, nil, nil
	k.QP, k.Seed = ctx.qp, seed
}

// switchingCell finishes cell c = (digit j, limb t) of the key
// genSwitchingKeyInto is filling: the zero-sample's limb, plus the gadget
// term on the digit's own limb. Cells write disjoint limbs, and digit j
// alone uses the term scratch g[j], so they run concurrently.
func (kg *KeyGenerator) switchingCell(c int) {
	ctx := kg.ctx
	n := ctx.Params.N()
	qp := len(ctx.Primes) + 1
	j, t := c/qp, c%qp
	b := kg.parts[j][0][t]
	kg.zeroSampleInto(t, kg.parts[j][1][t], kg.es[j*n:(j+1)*n], kg.sk, b)
	if t != j {
		return
	}
	mod, s, g := kg.qpMod(t), kg.sk.S[j], kg.g[j]
	if kg.tab == nil {
		mod.MulCoeffwiseMontgomery(s, s, g) // ŝ², Montgomery form
	} else {
		// The NTT-domain automorphism is a pure gather, and Montgomery form
		// commutes with it.
		ring.ApplyAutomorphismNTT(s, kg.tab, g) // σ_g(ŝ), Montgomery form
	}
	mod.MulScalar(g, ctx.Special%ctx.Primes[j], g) // a plain scalar keeps the form
	mod.Add(b, g, b)
}

// gadgetFits reports whether parts is a digits × 2 × limbs gadget of
// degree n, so a key can be regenerated in its storage.
func gadgetFits(parts [][2]ring.RNSPoly, digits, limbs, n int) bool {
	if len(parts) != digits {
		return false
	}
	for _, part := range parts {
		for _, comp := range part {
			if len(comp) != limbs {
				return false
			}
			for _, limb := range comp {
				if len(limb) != n {
					return false
				}
			}
		}
	}
	return true
}

// newGadget allocates a digits × 2 × limbs gadget of degree n in three
// allocations: the parts, the limb headers and one coefficient slab, cut
// into limbs capped at n so no limb can grow into its neighbour.
func newGadget(digits, limbs, n int) [][2]ring.RNSPoly {
	parts := make([][2]ring.RNSPoly, digits)
	polys := make([]ring.Poly, digits*2*limbs)
	slab := make([]uint64, len(polys)*n)
	for i := range polys {
		polys[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	for j := range parts {
		for c := range parts[j] {
			i := (2*j + c) * limbs
			parts[j][c] = polys[i : i+limbs : i+limbs]
		}
	}
	return parts
}

// expandChunk is the keystream buffer expandUniform draws through.
const expandChunk = 4096

var expandBufs = sync.Pool{New: func() any { return new([expandChunk]byte) }}

// expandUniform writes the uniform half of a switching key, Parts[j][1],
// from its seed: the AES-256-CTR keystream under seed (zero IV) is read as
// little-endian 64-bit words and consumed in digit, limb, coefficient
// order, each word masked to the bit length of its limb's modulus q and
// rejected while ≥ q. Since q < 2⁶² the mask never overflows and at least
// half of all words are accepted, whatever the moduli. The words land as
// stored: a uniform residue is uniform in the NTT domain and Montgomery
// form alike. One stream per key keeps the expansion at a fixed handful of
// allocations (the cipher and its stream) however many cells the key has.
func expandUniform(seed *[SeedSize]byte, qp []uint64, parts [][2]ring.RNSPoly) {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // unreachable: SeedSize is a valid AES key length
	}
	var iv [aes.BlockSize]byte
	stream := cipher.NewCTR(block, iv[:])
	buf := expandBufs.Get().(*[expandChunk]byte)
	defer expandBufs.Put(buf)
	off := expandChunk
	for _, part := range parts {
		for t, limb := range part[1] {
			q := qp[t]
			mask := uint64(1)<<bits.Len64(q) - 1
			for k := 0; k < len(limb); {
				if off == expandChunk {
					clear(buf[:])
					stream.XORKeyStream(buf[:], buf[:])
					off = 0
				}
				v := binary.LittleEndian.Uint64(buf[off:]) & mask
				off += 8
				if v < q {
					limb[k] = v
					k++
				}
			}
		}
	}
}
