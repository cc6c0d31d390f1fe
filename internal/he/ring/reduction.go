// Division-free modular reduction primitives. Every function here compiles
// to a handful of multiplies, shifts and adds — no hardware division — given
// constants precomputed once per modulus:
//
//   - Montgomery (MRed family): needs qInv = q⁻¹ mod 2⁶⁴ (q odd). MRed(a, b)
//     returns a·b·2⁻⁶⁴ mod q, so one operand is usually kept in "Montgomery
//     form" x·2⁶⁴ mod q to cancel the 2⁻⁶⁴.
//   - Barrett (BRed family): needs brc = ⌊2¹²⁸/q⌋ as two 64-bit words. BRed
//     multiplies operands in the plain domain, BRedAdd reduces one word.
//
// Validity ranges (q < 2⁶² throughout the package):
//
//	MRed/MRedLazy  any a, b with a·b < q·2⁶⁴; strict output [0, q),
//	               lazy output [0, 2q)
//	BRed           any a, b < 2⁶⁴ (a·b up to 2¹²⁸); output [0, q)
//	BRedAdd        any a < 2⁶⁴; output [0, q)
//	MForm          any a < 2⁶⁴; output a·2⁶⁴ mod q in [0, q)
//	LazySum        terms a_i, b_i < q with Σ a_i·b_i < q·2⁶⁴, which
//	               ⌊2⁶⁴/q⌋ terms guarantee (LazySumTerms; longer sums
//	               reduce per chunk of that many); output
//	               Σ a_i·b_i·2⁻⁶⁴ mod q in [0, q) — see lazysum.go
//
// All are cross-checked against bits.Rem64 by randomized property tests.
package ring

import "math/bits"

// MRedConstant returns q⁻¹ mod 2⁶⁴ for odd q, the Montgomery reduction
// constant. Five Newton iterations double the correct low bits from 3
// (q·q ≡ 1 mod 8 for odd q) past 64.
func MRedConstant(q uint64) uint64 {
	qInv := q
	for i := 0; i < 5; i++ {
		qInv *= 2 - q*qInv
	}
	return qInv
}

// BRedConstant returns ⌊2¹²⁸/q⌋ as (hi, lo) words, the Barrett reduction
// constant. q must satisfy 1 < q < 2⁶³.
func BRedConstant(q uint64) [2]uint64 {
	hi, r := bits.Div64(1, 0, q)
	lo, _ := bits.Div64(r, 0, q)
	return [2]uint64{hi, lo}
}

// MRed returns a·b·2⁻⁶⁴ mod q in [0, q). Valid whenever a·b < q·2⁶⁴
// (in particular for any a < 2⁶⁴ with b < q, the twiddle case).
func MRed(a, b, q, qInv uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return mred128(hi, lo, q, qInv)
}

// mred128 is MRed on an already-formed 128-bit value hi·2⁶⁴ + lo, which
// must be below q·2⁶⁴ (so hi < q).
func mred128(hi, lo, q, qInv uint64) uint64 {
	th, _ := bits.Mul64(lo*qInv, q)
	r := hi - th + q
	if r >= q {
		r -= q
	}
	return r
}

// MRedLazy is MRed without the final correction; the output lies in
// [0, 2q). It is the NTT butterfly workhorse.
func MRedLazy(a, b, q, qInv uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	th, _ := bits.Mul64(lo*qInv, q)
	return hi - th + q
}

// BRed returns a·b mod q in [0, q) for plain-domain operands, using the
// full 128-bit Barrett quotient estimate (error ≤ 2, corrected by two
// conditional subtractions; needs 4q < 2⁶⁴).
func BRed(a, b, q uint64, brc [2]uint64) uint64 {
	ahi, alo := bits.Mul64(a, b)
	// qhat ≈ ⌊(ahi·2⁶⁴ + alo)·(brc[0]·2⁶⁴ + brc[1]) / 2¹²⁸⌋: sum the three
	// partial products that reach bit 128, with carries from the mid word.
	h0hi, _ := bits.Mul64(alo, brc[1])
	h1hi, h1lo := bits.Mul64(alo, brc[0])
	h2hi, h2lo := bits.Mul64(ahi, brc[1])
	mid, c1 := bits.Add64(h0hi, h1lo, 0)
	_, c2 := bits.Add64(mid, h2lo, 0)
	qhat := ahi*brc[0] + h1hi + h2hi + c1 + c2
	r := alo - qhat*q
	if r >= 2*q {
		r -= 2 * q
	}
	if r >= q {
		r -= q
	}
	return r
}

// BRedAdd reduces a single word a to [0, q) — the cheap single-word
// reduction used where a residue mod some multiple of q must be brought
// into [0, q), e.g. CKKS level drops (quotient estimate via the high
// constant word only; error ≤ 1).
func BRedAdd(a, q uint64, brc [2]uint64) uint64 {
	qhat, _ := bits.Mul64(a, brc[0])
	r := a - qhat*q
	if r >= q {
		r -= q
	}
	return r
}

// MForm returns a·2⁶⁴ mod q, the Montgomery form of a (error ≤ 2, two
// conditional subtractions).
func MForm(a, q uint64, brc [2]uint64) uint64 {
	hhi, _ := bits.Mul64(a, brc[1])
	qhat := a*brc[0] + hhi
	r := -(qhat * q) // low word of a·2⁶⁴ − qhat·q
	if r >= 2*q {
		r -= 2 * q
	}
	if r >= q {
		r -= q
	}
	return r
}

// InvMForm takes a out of Montgomery form: a·2⁻⁶⁴ mod q.
func InvMForm(a, q, qInv uint64) uint64 {
	return MRed(a, 1, q, qInv)
}
