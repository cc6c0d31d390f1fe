package ckks

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactPrec is the working precision of the exact embedding: far past
// the float64 transform, so the reference's own error is no term of any
// bound below.
const exactPrec = 160

// exactRoots returns cos and sin of π·t/N for t < 2N at exactPrec bits:
// the 2N-th roots of unity ζ^t, ζ = exp(iπ/N). It halves the angle from
// π/2 (cos(θ/2) = √((1+cos θ)/2), sin(θ/2) = sin θ / 2cos(θ/2), no
// cancellation) down to π/N and multiplies up from there.
func exactRoots(n int) (cos, sin []*big.Float) {
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }
	c1, s1 := f(0), f(1)
	half, one := f(0.5), f(1)
	for m := 2; m < n; m <<= 1 {
		s := f(0).Add(one, c1)
		s.Mul(s, half).Sqrt(s)
		s1.Quo(s1, s).Mul(s1, half)
		c1 = s
	}
	cos, sin = make([]*big.Float, 2*n), make([]*big.Float, 2*n)
	cos[0], sin[0] = f(1), f(0)
	a, b := f(0), f(0)
	for t := 1; t < 2*n; t++ {
		// ζ^t = ζ^{t−1}·ζ
		cos[t] = f(0).Sub(a.Mul(cos[t-1], c1), b.Mul(sin[t-1], s1))
		sin[t] = f(0).Add(a.Mul(sin[t-1], c1), b.Mul(cos[t-1], s1))
	}
	return cos, sin
}

// exactEncode returns round(Δ·c_k) for the exact coefficients of the slot
// vector re + i·im: c_k = (2/N)·Σ_j Re(z_j·ζ^{−5^j·k}), the inverse of the
// embedding over the N/2 roots ζ^{5^j} and their conjugates.
func exactEncode(cos, sin []*big.Float, re, im []float64, scale float64) []int64 {
	n := len(cos) / 2
	zr, zi := make([]*big.Float, len(re)), make([]*big.Float, len(im))
	for j := range re {
		zr[j] = new(big.Float).SetPrec(exactPrec).SetFloat64(re[j])
		zi[j] = new(big.Float).SetPrec(exactPrec).SetFloat64(im[j])
	}
	out := make([]int64, n)
	acc, t0 := new(big.Float).SetPrec(exactPrec), new(big.Float).SetPrec(exactPrec)
	factor := new(big.Float).SetPrec(exactPrec).SetFloat64(2 * scale / float64(n))
	for k := range out {
		acc.SetInt64(0)
		t := k
		for j := range zr {
			acc.Add(acc, t0.Mul(zr[j], cos[t]))
			acc.Add(acc, t0.Mul(zi[j], sin[t]))
			t = t * 5 % (2 * n)
		}
		acc.Mul(acc, factor)
		out[k] = roundBig(acc)
	}
	return out
}

// exactDecode returns the slots m(ζ^{5^j})/Δ of the integer polynomial
// coeffs, each summed at exactPrec bits and rounded once to complex128.
func exactDecode(cos, sin []*big.Float, coeffs []int64, scale float64) []complex128 {
	n := len(coeffs)
	out := make([]complex128, n/2)
	re, im := new(big.Float).SetPrec(exactPrec), new(big.Float).SetPrec(exactPrec)
	c, t0 := new(big.Float).SetPrec(exactPrec), new(big.Float).SetPrec(exactPrec)
	inv := new(big.Float).SetPrec(exactPrec).SetFloat64(1 / scale)
	pow5 := 1
	for j := range out {
		re.SetInt64(0)
		im.SetInt64(0)
		for k, ck := range coeffs {
			c.SetInt64(ck)
			t := pow5 * k % (2 * n)
			re.Add(re, t0.Mul(c, cos[t]))
			im.Add(im, t0.Mul(c, sin[t]))
		}
		r, _ := re.Mul(re, inv).Float64()
		i, _ := im.Mul(im, inv).Float64()
		out[j] = complex(r, i)
		pow5 = pow5 * 5 % (2 * n)
	}
	return out
}

func roundBig(x *big.Float) int64 {
	h := new(big.Float).SetPrec(exactPrec).SetFloat64(0.5)
	if x.Sign() < 0 {
		h.Neg(h)
	}
	v, _ := h.Add(h, x).Int64() // truncates toward zero
	return v
}

// TestEncoderMatchesExactEmbedding holds the half-length transform to the
// canonical embedding evaluated directly at exactPrec bits, at LogN 8 and
// 10 on the served chain (Δ = 2⁵⁰):
//   - every coefficient EncodeRealCoeffs writes is within ±1 of
//     round(Δ·exact) — the float64 transform may tip a rounding, no more;
//   - the decoder's slots of those integer coefficients are within 2⁻⁴⁰
//     of the exact slots (measured ≈2⁻⁴⁹);
//   - decode(encode(z)) is within N/Δ + 2⁻⁴⁰ of z: the integer rounding
//     moves each of N coefficients by at most 1 (≤ 1/Δ per slot each),
//     plus the transform's own error;
//   - X^{N/2} decodes to i in every slot, and the all-i vector encodes to
//     exactly Δ·X^{N/2}: the identity the half-length transform rests on.
func TestEncoderMatchesExactEmbedding(t *testing.T) {
	for _, logN := range []int{8, 10} {
		ctx, err := NewContext(servedParams(t, logN))
		if err != nil {
			t.Fatal(err)
		}
		enc, n, scale := NewEncoder(ctx), ctx.Params.N(), ctx.Params.Scale()
		cos, sin := exactRoots(n)
		rng := rand.New(rand.NewSource(int64(logN)))
		re, im := make([]float64, n/2), make([]float64, n/2)
		for j := range re {
			re[j], im[j] = 2*rng.Float64()-1, 2*rng.Float64()-1
		}
		coeffs := make([]int64, n)
		if err := enc.EncodeRealCoeffs(re, im, scale, make([]complex128, n/2), coeffs); err != nil {
			t.Fatal(err)
		}
		want := exactEncode(cos, sin, re, im, scale)
		tipped := 0
		for k, c := range coeffs {
			switch d := c - want[k]; {
			case d < -1 || d > 1:
				t.Fatalf("logN %d: coefficient %d = %d, exact rounding %d", logN, k, c, want[k])
			case d != 0:
				tipped++
			}
		}
		t.Logf("logN %d: %d of %d coefficients one off the exact rounding", logN, tipped, n)

		pt := &Plaintext{Value: ctx.Tower.NewPoly(ctx.MaxLevel() + 1), Scale: scale, Level: ctx.MaxLevel()}
		ctx.Tower.FromInt64Into(coeffs, pt.Value)
		got, exact := enc.Decode(pt), exactDecode(cos, sin, coeffs, scale)
		if e := maxSlotError(got, exact); e > 0x1p-40 {
			t.Errorf("logN %d: decoded slots %.3g from the exact embedding, bound 2^-40", logN, e)
		} else {
			t.Logf("logN %d: decode within %.3g (2^%.1f) of the exact embedding", logN, e, math.Log2(e))
		}
		z := make([]complex128, n/2)
		for j := range z {
			z[j] = complex(re[j], im[j])
		}
		if e, bound := maxSlotError(got, z), float64(n)/scale+0x1p-40; e > bound {
			t.Errorf("logN %d: decode(encode(z)) %.3g from z, bound %.3g", logN, e, bound)
		}

		mono := make([]int64, n)
		mono[n/2] = int64(scale)
		ctx.Tower.FromInt64Into(mono, pt.Value)
		for j, s := range enc.Decode(pt) {
			if d := s - 1i; math.Abs(real(d)) > 0x1p-40 || math.Abs(imag(d)) > 0x1p-40 {
				t.Fatalf("logN %d: X^(N/2) decodes to %v in slot %d, want i", logN, s, j)
			}
		}
		ones := make([]float64, n/2)
		for j := range ones {
			ones[j] = 1
		}
		if err := enc.EncodeRealCoeffs(nil, ones, scale, make([]complex128, n/2), coeffs); err != nil {
			t.Fatal(err)
		}
		for k, c := range coeffs {
			if c != mono[k] {
				t.Fatalf("logN %d: the all-i vector encodes coefficient %d to %d, want %d", logN, k, c, mono[k])
			}
		}
	}
}

// encoderSink keeps the encoder NewEncoder returns on the heap, as a
// caller that holds it does.
var encoderSink *Encoder

// TestEncoderBuffersAndAllocs holds the encoder to its shape: its tables
// belong to the context (WithKeyLevels shares them, NewEncoder allocates
// only its struct), the scratch-backed encode and decode allocate
// nothing, and an FFT buffer of any length but N/2 is refused.
func TestEncoderBuffersAndAllocs(t *testing.T) {
	ctx, err := NewContext(servedParams(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := ctx.WithKeyLevels(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.fft != ctx.fft {
		t.Error("WithKeyLevels rebuilt the transform tables")
	}
	if a := testing.AllocsPerRun(20, func() { encoderSink = NewEncoder(ctx) }); a != 1 {
		t.Errorf("NewEncoder allocates %v objects, want 1 (its struct)", a)
	}
	enc, n, slots := NewEncoder(ctx), ctx.Params.N(), ctx.Params.Slots()
	vals := make([]float64, slots)
	for j := range vals {
		vals[j] = math.Sin(float64(j))
	}
	work, coeffs, out := make([]complex128, slots), make([]int64, n), make([]float64, slots)
	pt, err := enc.EncodeRealAtLevel(vals, 0, ctx.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := enc.EncodeRealCoeffs(vals, vals, 0, work, coeffs); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("EncodeRealCoeffs allocates %v objects, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := enc.DecodeRealInto(pt, work, out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("DecodeRealInto allocates %v objects, want 0", a)
	}
	for _, m := range []int{0, slots - 1, slots + 1, n} {
		if err := enc.EncodeRealCoeffs(vals, nil, 0, make([]complex128, m), coeffs); err == nil {
			t.Errorf("encode accepted a %d-entry FFT buffer (N/2 = %d)", m, slots)
		}
		if err := enc.DecodeRealInto(pt, make([]complex128, m), out); err == nil {
			t.Errorf("decode accepted a %d-entry FFT buffer (N/2 = %d)", m, slots)
		}
	}
	if err := enc.EncodeRealCoeffs(vals, nil, 0, work, coeffs[1:]); err == nil {
		t.Error("encode accepted N−1 coefficients")
	}
}

func BenchmarkEncodeRealCoeffs(b *testing.B) {
	ctx, err := NewContext(servedParams(b, 12))
	if err != nil {
		b.Fatal(err)
	}
	enc, slots := NewEncoder(ctx), ctx.Params.Slots()
	vals := make([]float64, slots)
	for j := range vals {
		vals[j] = math.Sin(float64(j))
	}
	work, coeffs := make([]complex128, slots), make([]int64, ctx.Params.N())
	b.ReportAllocs()
	for b.Loop() {
		if err := enc.EncodeRealCoeffs(vals, vals, 0, work, coeffs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRealInto(b *testing.B) {
	ctx, err := NewContext(servedParams(b, 12))
	if err != nil {
		b.Fatal(err)
	}
	enc, slots := NewEncoder(ctx), ctx.Params.Slots()
	vals := make([]float64, slots)
	for j := range vals {
		vals[j] = math.Sin(float64(j))
	}
	pt, err := enc.EncodeRealAtLevel(vals, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	work, out := make([]complex128, slots), make([]float64, slots)
	b.ReportAllocs()
	for b.Loop() {
		if err := enc.DecodeRealInto(pt, work, out); err != nil {
			b.Fatal(err)
		}
	}
}
