package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// lazySumOracle returns Σ a_i[k]·b_i[k]·2⁻⁶⁴ mod q per coefficient k in
// unbounded integers, gathering a through tab when it is non-nil.
func lazySumOracle(q uint64, as, bs []Poly, tab []uint32) Poly {
	n := len(as[0])
	bq := new(big.Int).SetUint64(q)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64), bq)
	out := make(Poly, n)
	sum, term, x := new(big.Int), new(big.Int), new(big.Int)
	for k := 0; k < n; k++ {
		sum.SetUint64(0)
		for i := range as {
			src := k
			if tab != nil {
				src = int(tab[k])
			}
			term.Mul(x.SetUint64(as[i][src]), term.SetUint64(bs[i][k]))
			sum.Add(sum, term)
		}
		out[k] = sum.Mul(sum, rInv).Mod(sum, bq).Uint64()
	}
	return out
}

// TestLazySumOverflowBound drives LazySum at the edge of its 128-bit
// headroom: every operand residue q−1 (the largest product the
// precondition admits), at exactly ⌊2⁶⁴/q⌋ terms — the longest sum that
// is reduced once — one term more, and past a second chunk boundary, for
// a 50-, 60- and 61-bit prime, against unbounded integer arithmetic.
// Random operands and the gather variant ride the same term counts.
func TestLazySumOverflowBound(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(11))
	tab := AutomorphismNTTTable(GaloisElement(3, n), n)
	for _, bitLen := range []int{50, 60, 61} {
		q := nttPrime(t, bitLen, n)
		m, err := NewModulus(q, n)
		if err != nil {
			t.Fatal(err)
		}
		bound := m.LazySumTerms()
		if want := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).SetUint64(q)); !want.IsInt64() || int(want.Int64()) != bound {
			t.Fatalf("%d-bit q: LazySumTerms = %d, want ⌊2⁶⁴/q⌋ = %v", bitLen, bound, want)
		}
		worst := m.NewPoly()
		for i := range worst {
			worst[i] = q - 1
		}
		for _, terms := range []int{0, 1, bound, bound + 1, 2*bound + 1} {
			for _, operands := range []string{"worst", "random"} {
				as, bs := make([]Poly, terms), make([]Poly, terms)
				for i := range as {
					as[i], bs[i] = worst, worst
					if operands == "random" {
						as[i], bs[i] = m.UniformPoly(rng), m.UniformPoly(rng)
					}
				}
				for _, gather := range []bool{false, true} {
					what := fmt.Sprintf("%d-bit q, %d terms (bound %d), %s operands, gather %v", bitLen, terms, bound, operands, gather)
					// Dirty rows: the sum must not depend on what they held.
					hi, lo, got := m.UniformPoly(rng), m.UniformPoly(rng), m.UniformPoly(rng)
					sum := m.LazySum(hi, lo, got)
					for i := range as {
						if gather {
							sum.MulAddGather(as[i], tab, bs[i])
						} else {
							sum.MulAdd(as[i], bs[i])
						}
					}
					sum.Reduce()
					want := make(Poly, n)
					if terms > 0 {
						var wantTab []uint32
						if gather {
							wantTab = tab
						}
						want = lazySumOracle(q, as, bs, wantTab)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s: coefficient %d = %d, want %d", what, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// TestLazySumMatchesStrictChain pins the bit-identity claim directly: a
// LazySum equals the per-term MRed + AddMod chain it replaces, with one
// operand in Montgomery form as the callers have it.
func TestLazySumMatchesStrictChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, q := range testPrimes(t) {
		m, err := NewModulus(q, 256)
		if err != nil {
			t.Fatal(err)
		}
		terms := m.LazySumTerms() + 3
		if terms > 40 {
			terms = 40
		}
		got, want := m.NewPoly(), m.NewPoly()
		sum := m.LazySum(m.NewPoly(), m.NewPoly(), got)
		bM := m.NewPoly()
		for i := 0; i < terms; i++ {
			a := m.UniformPoly(rng)
			m.MForm(m.UniformPoly(rng), bM)
			sum.MulAdd(a, bM)
			for k := range want {
				want[k] = AddMod(want[k], MRed(a[k], bM[k], m.Q, m.qInv), m.Q)
			}
		}
		sum.Reduce()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("q=%d: coefficient %d = %d, want %d", q, k, got[k], want[k])
			}
		}
	}
}

func BenchmarkLazySum(b *testing.B) {
	const n = 4096
	q := nttPrime(b, 60, n)
	m, err := NewModulus(q, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	terms := m.LazySumTerms()
	as, bs := make([]Poly, terms), make([]Poly, terms)
	for i := range as {
		as[i], bs[i] = m.UniformPoly(rng), m.UniformPoly(rng)
	}
	hi, lo, out := m.NewPoly(), m.NewPoly(), m.NewPoly()
	b.SetBytes(int64(terms * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := m.LazySum(hi, lo, out)
		for j := range as {
			sum.MulAdd(as[j], bs[j])
		}
		sum.Reduce()
	}
}
