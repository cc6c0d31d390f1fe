package ring

// Galois automorphisms of the negacyclic ring R = Z_q[X]/(X^N + 1).
//
// For odd g, σ_g: X → X^g permutes the primitive 2N-th roots of unity and
// therefore acts on both representations of a polynomial:
//
//   - Coefficient domain: coefficient i moves to position i·g mod 2N, with
//     a sign flip when the destination wraps past N (X^N = −1).
//   - NTT domain: position i of an NTT vector holds the evaluation at
//     ψ^(2·br(i)+1) (br = bit reversal over log₂N bits — the transform's
//     decimation order), so σ_g is a pure gather permutation: the output
//     at evaluation point ψ^t is the input at point ψ^(t·g mod 2N). No
//     arithmetic, no sign corrections, and Montgomery form commutes with
//     it — key material permutes as-is.
//
// The slot-rotation group of CKKS is generated by g = 5: 5 has order N/2
// mod 2N, and with the encoder's orbit slot ordering (see
// internal/he/ckks) σ_{5^r} is exactly a cyclic rotation of the N/2 slots
// by r. GaloisElement maps a slot rotation to its group element.
//
// Gather tables depend only on (N, g) — not on the modulus — so one table
// is shared by every limb of a residue tower. They are cached globally:
// a serving process touches a few dozen elements (the power-of-two
// rotation set per ring degree), never an unbounded family.

import (
	"math/bits"
	"sync"
)

// GaloisGen generates the slot-rotation Galois subgroup: 5 ≡ 1 mod 4 has
// multiplicative order N/2 modulo 2N for every power-of-two N ≥ 4.
const GaloisGen uint64 = 5

// GaloisElement returns the Galois group element g = 5^rot mod 2N whose
// automorphism rotates the N/2 CKKS slots left by rot (negative rot
// rotates right; rot is reduced mod N/2).
func GaloisElement(rot, n int) uint64 {
	slots := n / 2
	r := rot % slots
	if r < 0 {
		r += slots
	}
	return PowMod(GaloisGen, uint64(r), uint64(2*n))
}

// AutomorphismCoeffs applies σ_g to p in the coefficient domain:
// out[i·g mod N] = ±p[i], the sign flipping when i·g mod 2N lands in
// [N, 2N) (negacyclic wraparound). g must be odd; out must not alias p.
func (m *Modulus) AutomorphismCoeffs(p Poly, g uint64, out Poly) {
	n := uint64(m.N)
	mask := 2*n - 1
	q := m.Q
	for i := uint64(0); i < n; i++ {
		k := (i * g) & mask
		v := p[i]
		if k >= n {
			k -= n
			if v != 0 {
				v = q - v
			}
		}
		out[k] = v
	}
}

type autoTabKey struct {
	n int
	g uint64
}

// autoTabs caches NTT-domain gather tables per (N, g); see the package
// comment for why the family is small.
var autoTabs sync.Map

// AutomorphismNTTTable returns the gather permutation tab for σ_g in the
// NTT domain of degree-n rings: out[i] = in[tab[i]]. The table is shared
// across all moduli of that degree and cached for the process lifetime.
// g must be odd and n a power of two.
func AutomorphismNTTTable(g uint64, n int) []uint32 {
	key := autoTabKey{n: n, g: g}
	if tab, ok := autoTabs.Load(key); ok {
		return tab.([]uint32)
	}
	logN := bits.TrailingZeros(uint(n))
	mask := uint64(2*n - 1)
	tab := make([]uint32, n)
	for j := 0; j < n; j++ {
		// Output position j evaluates at ψ^t, t = 2·br(j)+1; σ_g pulls the
		// input's value at ψ^(t·g mod 2N), which lives at position
		// br((t·g mod 2N − 1)/2).
		t := 2*uint64(reverseBits(uint32(j), logN)) + 1
		src := (t * g) & mask
		tab[j] = reverseBits(uint32((src-1)>>1), logN)
	}
	actual, _ := autoTabs.LoadOrStore(key, tab)
	return actual.([]uint32)
}

// ApplyAutomorphismNTT gathers out[i] = p[tab[i]] — σ_g on an NTT-domain
// polynomial (plain or Montgomery form; the permutation commutes with
// both). out must not alias p.
func ApplyAutomorphismNTT(p Poly, tab []uint32, out Poly) {
	for i := range out {
		out[i] = p[tab[i]]
	}
}
