package ring

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
)

// AddMod returns (a + b) mod q for a, b < q.
func AddMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q || s < a { // s < a catches wraparound (q > 2^63 unsupported)
		s -= q
	}
	return s
}

// SubMod returns (a − b) mod q for a, b < q.
func SubMod(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}

// MulMod returns (a·b) mod q using 128-bit intermediate arithmetic. It is
// the division-based reference; hot paths use the precomputed
// Montgomery/Barrett routines on Modulus instead.
func MulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, q)
}

// PowMod returns a^e mod q by square-and-multiply.
func PowMod(a, e, q uint64) uint64 {
	result := uint64(1 % q)
	base := a % q
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, base, q)
		}
		base = MulMod(base, base, q)
		e >>= 1
	}
	return result
}

// InvMod returns a^{−1} mod q via the extended Euclidean algorithm; it
// works for any modulus as long as gcd(a, q) = 1, and returns 0 otherwise.
func InvMod(a, q uint64) uint64 {
	if q == 0 {
		return 0
	}
	// Signed Bézout on int128-free path: track coefficients mod q.
	var r0, r1 = int64(q), int64(a % q)
	var t0, t1 = int64(0), int64(1)
	for r1 != 0 {
		quot := r0 / r1
		r0, r1 = r1, r0-quot*r1
		t0, t1 = t1, t0-quot*t1
	}
	if r0 != 1 {
		return 0 // not invertible
	}
	if t0 < 0 {
		t0 += int64(q)
	}
	return uint64(t0)
}

// FindNTTPrimes returns the count largest primes q < 2^bitLen with
// q ≡ 1 (mod 2n), descending. bitLen must be in [1, 62] and n a positive
// power of two.
func FindNTTPrimes(bitLen, n, count int) ([]uint64, error) {
	if count <= 0 {
		return nil, fmt.Errorf("ring: count %d must be positive", count)
	}
	if bitLen < 1 || bitLen > 62 {
		return nil, fmt.Errorf("ring: bitLen %d outside [1, 62]", bitLen)
	}
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: n = %d is not a positive power of two", n)
	}
	out := make([]uint64, 0, count)
	next := uint64(1)<<uint(bitLen) - 1
	step := uint64(2 * n)
	for len(out) < count {
		q, err := findNTTPrimeBelow(next, n)
		if err != nil {
			return nil, fmt.Errorf("ring: only %d of %d primes of %d bits for n=%d", len(out), count, bitLen, n)
		}
		out = append(out, q)
		next = q - step
	}
	return out, nil
}

func findNTTPrimeBelow(start uint64, n int) (uint64, error) {
	step := uint64(2 * n)
	q := start
	q -= (q - 1) % step
	for ; q > step; q -= step {
		if new(big.Int).SetUint64(q).ProbablyPrime(20) {
			return q, nil
		}
	}
	return 0, errors.New("ring: no NTT prime found")
}

// Modulus bundles the modulus q, the ring degree N, the precomputed
// Montgomery/Barrett reduction constants and the negacyclic NTT tables
// (twiddles in bit-reversed order and Montgomery form). It is immutable
// after construction and safe for concurrent use.
type Modulus struct {
	Q uint64
	N int

	qInv uint64    // q⁻¹ mod 2⁶⁴ (Montgomery constant)
	brc  [2]uint64 // ⌊2¹²⁸/q⌋ (Barrett constant)
	// lazyTerms = ⌊2⁶⁴/q⌋: products of reduced operands a LazySum may
	// accumulate before their 128-bit total could leave MRed's range.
	lazyTerms int

	psiMont        []uint64 // ψ^i·2⁶⁴, bit-reversed (forward twiddles)
	psiInvMont     []uint64 // ψ^{−i}·2⁶⁴, bit-reversed (inverse twiddles)
	nInvMont       uint64   // N⁻¹·2⁶⁴ mod q (folded into the last INTT stage)
	psiInvNInvMont uint64   // ψ^{−N/2}·N⁻¹·2⁶⁴ mod q (last-stage odd halves)
}

// ReduceInto reduces foreign residues (values mod any multiple of q, or
// plain uint64s) into [0, q) via BRedAdd — the CKKS level-drop primitive.
// Slices may alias.
func (m *Modulus) ReduceInto(a, out Poly) {
	q, brc := m.Q, m.brc
	for i, v := range a {
		out[i] = BRedAdd(v, q, brc)
	}
}

// NewModulus validates q and N and precomputes reduction constants and NTT
// tables. q must be an NTT-friendly prime for degree N (q ≡ 1 mod 2N,
// q < 2^62).
func NewModulus(q uint64, n int) (*Modulus, error) {
	if err := checkModulusShape(q, n); err != nil {
		return nil, err
	}
	if !new(big.Int).SetUint64(q).ProbablyPrime(20) {
		return nil, fmt.Errorf("ring: q = %d is not prime", q)
	}
	psi, err := primitiveRoot2N(q, uint64(n))
	if err != nil {
		return nil, err
	}
	return newModulusWithRoot(q, n, psi)
}

func checkModulusShape(q uint64, n int) error {
	if n <= 1 || n&(n-1) != 0 {
		return fmt.Errorf("ring: N = %d is not a power of two > 1", n)
	}
	if q >= 1<<62 {
		return fmt.Errorf("ring: q = %d exceeds 2^62", q)
	}
	if q%(2*uint64(n)) != 1 {
		return fmt.Errorf("ring: q = %d is not 1 mod 2N = %d", q, 2*n)
	}
	return nil
}

func newModulusWithRoot(q uint64, n int, psi uint64) (*Modulus, error) {
	m := &Modulus{Q: q, N: n}
	m.qInv = MRedConstant(q) // q is odd: q ≡ 1 mod 2N
	m.brc = BRedConstant(q)
	terms, _ := bits.Div64(1, 0, q)
	m.lazyTerms = int(terms)
	m.psiMont = make([]uint64, n)
	m.psiInvMont = make([]uint64, n)
	psiInv := InvMod(psi, q)
	logN := bits.TrailingZeros(uint(n))
	fw, inv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		r := reverseBits(uint32(i), logN)
		m.psiMont[r] = MForm(fw, q, m.brc)
		m.psiInvMont[r] = MForm(inv, q, m.brc)
		fw = MulMod(fw, psi, q)
		inv = MulMod(inv, psiInv, q)
	}
	nInv := InvMod(uint64(n), q)
	m.nInvMont = MForm(nInv, q, m.brc)
	// The last INTT stage's single twiddle is ψ^{−rev(1)} = ψ^{−N/2};
	// fold N⁻¹ into it so the final full-array normalization pass is free.
	lastPsi := InvMForm(m.psiInvMont[1], q, m.qInv)
	m.psiInvNInvMont = MForm(MulMod(lastPsi, nInv, q), q, m.brc)
	return m, nil
}

// primitiveRoot2N finds a primitive 2N-th root of unity mod q.
func primitiveRoot2N(q, n uint64) (uint64, error) {
	// Find a generator-ish element: g^((q-1)/2N) has order dividing 2N;
	// it has order exactly 2N iff its N-th power is −1.
	exp := (q - 1) / (2 * n)
	for g := uint64(2); g < 1000; g++ {
		cand := PowMod(g, exp, q)
		if PowMod(cand, n, q) == q-1 {
			return cand, nil
		}
	}
	return 0, errors.New("ring: no primitive 2N-th root found")
}

func reverseBits(v uint32, bits int) uint32 {
	var r uint32
	for i := 0; i < bits; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// Poly is a polynomial with coefficients in [0, q), either in coefficient
// or NTT domain (the caller tracks which).
type Poly []uint64

// NewPoly allocates a zero polynomial of degree N.
func (m *Modulus) NewPoly() Poly { return make(Poly, m.N) }

// Copy returns an independent copy of p.
func (p Poly) Copy() Poly {
	out := make(Poly, len(p))
	copy(out, p)
	return out
}

// Add sets out = a + b (any domain). Slices may alias.
func (m *Modulus) Add(a, b, out Poly) {
	for i := range out {
		out[i] = AddMod(a[i], b[i], m.Q)
	}
}

// Neg sets out = −a.
func (m *Modulus) Neg(a, out Poly) {
	for i := range out {
		if a[i] == 0 {
			out[i] = 0
		} else {
			out[i] = m.Q - a[i]
		}
	}
}

// MulCoeffwise sets out = a ⊙ b (pointwise Barrett product; used in the
// NTT domain). Slices may alias.
func (m *Modulus) MulCoeffwise(a, b, out Poly) {
	q, brc := m.Q, m.brc
	for i := range out {
		out[i] = BRed(a[i], b[i], q, brc)
	}
}

// MulCoeffwiseThenAdd sets out += a ⊙ b (pointwise Barrett product, plain
// domain). Slices may alias.
func (m *Modulus) MulCoeffwiseThenAdd(a, b, out Poly) {
	q, brc := m.Q, m.brc
	for i := range out {
		out[i] = AddMod(out[i], BRed(a[i], b[i], q, brc), q)
	}
}

// MulCoeffwiseMontgomery sets out = a ⊙ bMont ⊙ 2⁻⁶⁴, i.e. the plain-domain
// pointwise product of a with the Montgomery-form polynomial bMont. Slices
// may alias.
func (m *Modulus) MulCoeffwiseMontgomery(a, bMont, out Poly) {
	q, qInv := m.Q, m.qInv
	for i := range out {
		out[i] = MRed(a[i], bMont[i], q, qInv)
	}
}

// MulCoeffwiseMontgomeryThenSub sets out −= a ⊙ bMont ⊙ 2⁻⁶⁴, the
// subtracting form of MulCoeffwiseMontgomery. Slices may alias.
func (m *Modulus) MulCoeffwiseMontgomeryThenSub(a, bMont, out Poly) {
	q, qInv := m.Q, m.qInv
	for i := range out {
		out[i] = SubMod(out[i], MRed(a[i], bMont[i], q, qInv), q)
	}
}

// MForm converts a to Montgomery form: out = a·2⁶⁴ mod q. Slices may alias.
func (m *Modulus) MForm(a, out Poly) {
	q, brc := m.Q, m.brc
	for i := range out {
		out[i] = MForm(a[i], q, brc)
	}
}

// MulScalar sets out = c·a via one MForm of the scalar and per-coefficient
// Montgomery products.
func (m *Modulus) MulScalar(a Poly, c uint64, out Poly) {
	q, qInv := m.Q, m.qInv
	cM := MForm(c%q, q, m.brc)
	for i := range out {
		out[i] = MRed(a[i], cM, q, qInv)
	}
}

// CenteredInt64 returns the centered representative of coefficient v in
// (−q/2, q/2].
func (m *Modulus) CenteredInt64(v uint64) int64 {
	if v > m.Q/2 {
		return int64(v) - int64(m.Q)
	}
	return int64(v)
}

// FromInt64 reduces a signed value into [0, q). Encoded plaintext
// coefficients, sampled errors and ternary secrets all satisfy |v| < q,
// which needs no division; anything wider falls back to the signed
// remainder.
func (m *Modulus) FromInt64(v int64) uint64 {
	q := int64(m.Q) // q < 2⁶², so ±q and v+q fit
	if v >= 0 {
		if v < q {
			return uint64(v)
		}
	} else if v > -q {
		return uint64(v + q)
	}
	r := v % q
	if r < 0 {
		r += q
	}
	return uint64(r)
}

// UniformPoly samples a polynomial with uniform coefficients in [0, q).
func (m *Modulus) UniformPoly(rng *rand.Rand) Poly {
	p := m.NewPoly()
	m.UniformPolyInto(rng, p)
	return p
}

// UniformPolyInto fills p with uniform coefficients in [0, q).
func (m *Modulus) UniformPolyInto(rng *rand.Rand, p Poly) {
	for i := range p {
		p[i] = uniformUint64(rng, m.Q)
	}
}

// uniformUint64 draws uniformly from [0, q) without modulo bias.
func uniformUint64(rng *rand.Rand, q uint64) uint64 {
	max := ^uint64(0) - ^uint64(0)%q
	for {
		v := rng.Uint64()
		if v < max {
			return v % q
		}
	}
}
