package ring

import (
	"fmt"
	"math/bits"
)

// RNSPoly is a polynomial in residue-number-system representation: one
// limb (coefficient row) per prime of the modulus chain, so the value of
// coefficient j is determined by CRT from {p[i][j] mod q_i}. Limb i is an
// ordinary Poly over the tower's i-th modulus and is operated on with that
// modulus's methods; limbs are independent, which is what per-limb
// parallel fan-out exploits. Every limb is either wholly in the
// coefficient domain or wholly in the NTT domain — callers track which,
// exactly as with Poly.
type RNSPoly []Poly

// Copy returns an independent deep copy of p.
func (p RNSPoly) Copy() RNSPoly {
	out := make(RNSPoly, len(p))
	for i := range p {
		out[i] = p[i].Copy()
	}
	return out
}

// Tower is an RNS modulus chain: per-prime NTT contexts for the chain
// primes q_0..q_{L−1} (and an optional special prime P used by hybrid key
// switching), plus the precomputed cross-limb constants the exact-division
// steps need. Towers are immutable after construction and safe to share.
type Tower struct {
	// N is the ring degree shared by every limb.
	N int
	// Qi[i] is the NTT context of chain prime q_i.
	Qi []*Modulus
	// P is the special prime's context (nil when the tower has none).
	P *Modulus

	// Rescale tables, triangular: qlInvMont[ℓ][i] = (q_ℓ⁻¹ mod q_i) in
	// Montgomery form and qlMod[ℓ][i] = q_ℓ mod q_i, for i < ℓ.
	qlInvMont [][]uint64
	qlMod     [][]uint64
	// ModDown tables for P, indexed by chain limb.
	pInvMont []uint64
	pMod     []uint64

	// Two-limb CRT constants for CenteredFloat (only when L ≥ 2):
	// q0InvQ1 = q_0⁻¹ mod q_1, q01 = q_0·q_1 as a 128-bit value, and its
	// half for centering.
	q0InvQ1        uint64
	q01Hi, q01Lo   uint64
	halfHi, halfLo uint64
}

// NewTower builds the chain contexts for the given distinct NTT-friendly
// primes (and special prime p; p = 0 means no special prime) and
// precomputes the rescale/ModDown constants.
func NewTower(n int, qs []uint64, p uint64) (*Tower, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("ring: tower needs at least one chain prime")
	}
	t := &Tower{N: n, Qi: make([]*Modulus, len(qs))}
	seen := make(map[uint64]bool, len(qs)+1)
	for i, q := range qs {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate chain prime %d", q)
		}
		seen[q] = true
		m, err := NewModulus(q, n)
		if err != nil {
			return nil, fmt.Errorf("ring: chain limb %d: %w", i, err)
		}
		t.Qi[i] = m
	}
	if p != 0 {
		if seen[p] {
			return nil, fmt.Errorf("ring: special prime %d collides with the chain", p)
		}
		m, err := NewModulus(p, n)
		if err != nil {
			return nil, fmt.Errorf("ring: special prime: %w", err)
		}
		t.P = m
	}

	L := len(qs)
	t.qlInvMont = make([][]uint64, L)
	t.qlMod = make([][]uint64, L)
	for l := 1; l < L; l++ {
		t.qlInvMont[l] = make([]uint64, l)
		t.qlMod[l] = make([]uint64, l)
		for i := 0; i < l; i++ {
			qi := t.Qi[i]
			inv := InvMod(qs[l]%qi.Q, qi.Q)
			if inv == 0 {
				return nil, fmt.Errorf("ring: q_%d not invertible mod q_%d", l, i)
			}
			t.qlInvMont[l][i] = MForm(inv, qi.Q, qi.brc)
			t.qlMod[l][i] = qs[l] % qi.Q
		}
	}
	if t.P != nil {
		t.pInvMont = make([]uint64, L)
		t.pMod = make([]uint64, L)
		for i := range qs {
			qi := t.Qi[i]
			inv := InvMod(p%qi.Q, qi.Q)
			if inv == 0 {
				return nil, fmt.Errorf("ring: P not invertible mod q_%d", i)
			}
			t.pInvMont[i] = MForm(inv, qi.Q, qi.brc)
			t.pMod[i] = p % qi.Q
		}
	}
	if L >= 2 {
		t.q0InvQ1 = InvMod(qs[0]%qs[1], qs[1])
		t.q01Hi, t.q01Lo = bits.Mul64(qs[0], qs[1])
		t.halfHi = t.q01Hi >> 1
		t.halfLo = t.q01Hi<<63 | t.q01Lo>>1
	}
	return t, nil
}

// NewPoly allocates a zero RNS polynomial with the given limb count.
func (t *Tower) NewPoly(limbs int) RNSPoly {
	p := make(RNSPoly, limbs)
	for i := range p {
		p[i] = make(Poly, t.N)
	}
	return p
}

// ForEachLimb runs f(i) for i in [0, limbs): ForEach at the tower's ring
// degree. f must not share mutable state across limbs.
func (t *Tower) ForEachLimb(limbs int, f func(i int)) { ForEach(t.N, limbs, f) }

// FromInt64Into reduces the signed coefficients into every limb of out.
func (t *Tower) FromInt64Into(vals []int64, out RNSPoly) {
	t.ForEachLimb(len(out), func(i int) {
		qi := t.Qi[i]
		for j, v := range vals {
			out[i][j] = qi.FromInt64(v)
		}
	})
}

// RescaleInto performs the exact RNS rescale: with in holding ℓ+1
// coefficient-domain limbs of x, out receives the ℓ limbs of
// (x − [x]_{q_ℓ})/q_ℓ, where [·]_{q_ℓ} is the centered remainder — i.e.
// round(x/q_ℓ) without ever leaving 64-bit residue arithmetic. out may
// alias in's first ℓ limbs; in's last limb is only read.
func (t *Tower) RescaleInto(in, out RNSPoly) {
	l := len(in) - 1
	last := in[l]
	half := t.Qi[l].Q >> 1
	t.ForEachLimb(l, func(i int) {
		qi := t.Qi[i]
		q, qInv, brc := qi.Q, qi.qInv, qi.brc
		qlM, invM := t.qlMod[l][i], t.qlInvMont[l][i]
		src, dst := in[i], out[i]
		for j := range dst {
			rU := last[j]
			r := BRedAdd(rU, q, brc)
			if rU > half {
				r = SubMod(r, qlM, q)
			}
			dst[j] = MRed(SubMod(src[j], r, q), invM, q, qInv)
		}
	})
}

// ModDownInto divides by the special prime: inQ holds coefficient-domain
// chain limbs of x, inP the coefficient-domain residue of x mod P, and
// out receives (x − [x]_P)/P on the same chain limbs — the hybrid
// key-switch step that scales the accumulated product back from QP to Q.
// out may alias inQ; inP is only read.
func (t *Tower) ModDownInto(inQ RNSPoly, inP Poly, out RNSPoly) {
	half := t.P.Q >> 1
	t.ForEachLimb(len(inQ), func(i int) {
		qi := t.Qi[i]
		q, qInv, brc := qi.Q, qi.qInv, qi.brc
		pM, invM := t.pMod[i], t.pInvMont[i]
		src, dst := inQ[i], out[i]
		for j := range dst {
			rU := inP[j]
			r := BRedAdd(rU, q, brc)
			if rU > half {
				r = SubMod(r, pM, q)
			}
			dst[j] = MRed(SubMod(src[j], r, q), invM, q, qInv)
		}
	})
}

// ModDownNTT is ModDownInto on one chain limb i whose data never leaves
// the NTT domain. Division by P is linear, so it can be done where the
// data already is: with inQ the NTT-domain limb i of x and inP the
// coefficient-domain residue of x mod P, the centered residue [x]_P is
// reduced into q_i (in scratch), forward-transformed, subtracted and the
// difference scaled by P⁻¹ pointwise — out receives exactly the NTT image
// of limb i of ModDownInto's result, at one forward transform instead of
// an inverse before and a forward after. out may alias inQ; scratch is
// overwritten; inP is only read.
func (t *Tower) ModDownNTT(i int, inQ, inP, scratch, out Poly) {
	qi := t.Qi[i]
	q, qInv, brc := qi.Q, qi.qInv, qi.brc
	pM, invM := t.pMod[i], t.pInvMont[i]
	half := t.P.Q >> 1
	scratch, inQ, out = scratch[:len(inP)], inQ[:len(inP)], out[:len(inP)]
	for j, rU := range inP {
		r := BRedAdd(rU, q, brc)
		if rU > half {
			r = SubMod(r, pM, q)
		}
		scratch[j] = r
	}
	qi.NTT(scratch)
	for j, r := range scratch {
		out[j] = MRed(SubMod(inQ[j], r, q), invM, q, qInv)
	}
}

// CenteredFloat reconstructs coefficient j of the coefficient-domain
// polynomial p as a centered float64. Single-limb values decode through
// the limb's centered representative; with two or more limbs the first
// two are CRT-combined in 128-bit arithmetic, which is exact while the
// true centered value stays below q_0·q_1/2 (≈ 2¹⁰⁹ for production
// chains) — far above any CKKS plaintext magnitude.
func (t *Tower) CenteredFloat(p RNSPoly, j int) float64 {
	if len(p) == 1 {
		return float64(t.Qi[0].CenteredInt64(p[0][j]))
	}
	q0, m1 := t.Qi[0].Q, t.Qi[1]
	r0, r1 := p[0][j], p[1][j]
	d := SubMod(r1, BRedAdd(r0, m1.Q, m1.brc), m1.Q)
	k := MulMod(d, t.q0InvQ1, m1.Q)
	hi, lo := bits.Mul64(q0, k)
	lo, carry := bits.Add64(lo, r0, 0)
	hi += carry
	if hi > t.halfHi || (hi == t.halfHi && lo > t.halfLo) {
		bl, borrow := bits.Sub64(t.q01Lo, lo, 0)
		bh, _ := bits.Sub64(t.q01Hi, hi, borrow)
		return -u128Float(bh, bl)
	}
	return u128Float(hi, lo)
}

func u128Float(hi, lo uint64) float64 {
	return float64(hi)*18446744073709551616.0 + float64(lo)
}

// FindNTTPrimesDistinct searches one NTT-friendly prime per requested bit
// length for ring degree n, keeping primes of equal bit length distinct
// (each repeated bit length continues the descending search). The result
// is index-aligned with bitLens.
func FindNTTPrimesDistinct(bitLens []int, n int) ([]uint64, error) {
	out := make([]uint64, len(bitLens))
	counts := make(map[int]int, len(bitLens))
	for _, b := range bitLens {
		counts[b]++
	}
	found := make(map[int][]uint64, len(counts))
	for b, count := range counts {
		ps, err := FindNTTPrimes(b, n, count)
		if err != nil {
			return nil, err
		}
		found[b] = ps
	}
	next := make(map[int]int, len(counts))
	seen := make(map[uint64]bool, len(bitLens))
	for i, b := range bitLens {
		q := found[b][next[b]]
		next[b]++
		if seen[q] {
			return nil, fmt.Errorf("ring: prime searches for bit lengths %v overlap at %d", bitLens, q)
		}
		seen[q] = true
		out[i] = q
	}
	return out, nil
}
