package ring

import "math/bits"

// LazySum is the package's one inner-product primitive: it accumulates
// Σ a_i ⊙ b_i as raw 128-bit products in two caller-provided rows (high
// and low words) and pays a single Montgomery reduction per sum instead
// of one reduction and one modular add per term. With every operand in
// [0, q) a term is below q², so ⌊2⁶⁴/q⌋ terms stay below q·2⁶⁴, the range
// MRed accepts; a longer sum is reduced per chunk of that many terms and
// the chunk residues are added. The result is Σ a_i·b_i·2⁻⁶⁴ mod q in
// [0, q) — the same canonical residue a chain of per-term MRed + AddMod
// produces, so callers switching to it stay bit-identical.
//
// One operand of each term is normally in Montgomery form (key material,
// plan diagonals), which cancels the 2⁻⁶⁴. A LazySum is a small value
// meant to live on the caller's stack for the duration of one sum.
type LazySum struct {
	m       *Modulus
	hi, lo  Poly
	out     Poly
	pending int  // terms accumulated in (hi, lo) since the last reduction
	reduced bool // out already holds the residue of earlier chunks
}

// LazySumTerms returns ⌊2⁶⁴/q⌋, the number of products of reduced
// operands a LazySum accumulates between reductions: 8 for a 61-bit
// modulus, 16 for a 60-bit one, 2¹⁴ at 50 bits.
func (m *Modulus) LazySumTerms() int { return m.lazyTerms }

// LazySum starts an empty sum whose reduced value Reduce leaves in out.
// hi and lo are scratch rows the sum owns until then; hi, lo and out must
// be three distinct rows of the modulus's degree, none aliasing an
// operand.
func (m *Modulus) LazySum(hi, lo, out Poly) LazySum {
	return LazySum{m: m, hi: hi[:m.N], lo: lo[:m.N], out: out[:m.N]}
}

// MulAdd adds the term a ⊙ b. Every coefficient of a and b must be in
// [0, q).
func (s *LazySum) MulAdd(a, b Poly) {
	hi, lo := s.hi, s.lo
	a, b = a[:len(hi)], b[:len(hi)]
	if s.begin() {
		for i, x := range a {
			hi[i], lo[i] = bits.Mul64(x, b[i])
		}
		return
	}
	for i, x := range a {
		h, l := bits.Mul64(x, b[i])
		var c uint64
		lo[i], c = bits.Add64(lo[i], l, 0)
		hi[i], _ = bits.Add64(hi[i], h, c)
	}
}

// MulAddGather adds the term σ(a) ⊙ b, where σ is the NTT-domain
// automorphism gather σ(a)[i] = a[tab[i]] (AutomorphismNTTTable) — the
// hoisted-rotation term: the decomposed digit is permuted and folded
// through the Galois key part in one pass. Operands as for MulAdd.
func (s *LazySum) MulAddGather(a Poly, tab []uint32, b Poly) {
	hi, lo := s.hi, s.lo
	tab, b = tab[:len(hi)], b[:len(hi)]
	if s.begin() {
		for i, k := range tab {
			hi[i], lo[i] = bits.Mul64(a[k], b[i])
		}
		return
	}
	for i, k := range tab {
		h, l := bits.Mul64(a[k], b[i])
		var c uint64
		lo[i], c = bits.Add64(lo[i], l, 0)
		hi[i], _ = bits.Add64(hi[i], h, c)
	}
}

// begin accounts for one more term, first folding a full chunk away, and
// reports whether the term starts a chunk (and so overwrites the rows
// instead of adding to them).
func (s *LazySum) begin() bool {
	if s.pending == s.m.lazyTerms {
		s.fold()
	}
	s.pending++
	return s.pending == 1
}

// fold Montgomery-reduces the pending chunk into out.
func (s *LazySum) fold() {
	q, qInv := s.m.Q, s.m.qInv
	hi, lo, out := s.hi, s.lo, s.out
	if s.reduced {
		for i, h := range hi {
			out[i] = AddMod(out[i], mred128(h, lo[i], q, qInv), q)
		}
	} else {
		for i, h := range hi {
			out[i] = mred128(h, lo[i], q, qInv)
		}
	}
	s.pending, s.reduced = 0, true
}

// Reduce finishes the sum: out = Σ a_i ⊙ b_i ⊙ 2⁻⁶⁴ mod q, every
// coefficient in [0, q) (all zero for an empty sum). The scratch rows are
// free again.
func (s *LazySum) Reduce() {
	switch {
	case s.pending > 0:
		s.fold()
	case !s.reduced:
		for i := range s.out {
			s.out[i] = 0
		}
	}
	s.reduced = false
}
