package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Encoder maps complex slot vectors to ring plaintexts through the
// canonical embedding: a message z ∈ C^{N/2} is interpolated at the
// primitive 2N-th roots of unity (with conjugate symmetry so coefficients
// come out real), scaled by Δ and rounded.
//
// Slots follow the Galois orbit ordering: slot j sits at the root
// ζ^(5^j mod 2N), not ζ^(2j+1). Since 5 generates the rotation subgroup
// of the Galois group (order N/2 mod 2N), the automorphism σ_{5^r}: X →
// X^(5^r) maps the root of slot j+r onto the root of slot j — i.e. a
// single automorphism plus key switch rotates the slot vector cyclically
// left by r (Evaluator.RotateHoistedInto). With the natural 2j+1 ordering the
// same automorphism scatters slots in index-arithmetic order, and packed
// linear algebra would be impossible. Slot-wise operations (add, mul,
// transciphering) are ordering-agnostic; the ordering is internal and
// both endpoints derive it identically.
//
// Encoders are immutable and safe for concurrent use.
type Encoder struct {
	ctx *Context
	// twiddles for the length-N complex FFT.
	wFwd, wInv []complex128
	// zetaFwd[k] = ζ^k, zetaInv[k] = ζ^{−k} with ζ = exp(iπ/N).
	zetaFwd, zetaInv []complex128
	// pos[j] = ((5^j mod 2N) − 1)/2: the natural-order index of slot j's
	// root, the scatter/gather layer that turns σ_5-orbit rotations into
	// cyclic slot shifts.
	pos []int
}

// NewEncoder builds an encoder for the context.
func NewEncoder(ctx *Context) *Encoder {
	n := ctx.Params.N()
	e := &Encoder{
		ctx:     ctx,
		wFwd:    make([]complex128, n/2),
		wInv:    make([]complex128, n/2),
		zetaFwd: make([]complex128, n),
		zetaInv: make([]complex128, n),
		pos:     make([]int, n/2),
	}
	for i := 0; i < n/2; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		e.wFwd[i] = cmplx.Exp(complex(0, ang))
		e.wInv[i] = cmplx.Exp(complex(0, -ang))
	}
	for k := 0; k < n; k++ {
		ang := math.Pi * float64(k) / float64(n)
		e.zetaFwd[k] = cmplx.Exp(complex(0, ang))
		e.zetaInv[k] = cmplx.Exp(complex(0, -ang))
	}
	pow5 := uint64(1)
	mask := uint64(2*n - 1)
	for j := 0; j < n/2; j++ {
		e.pos[j] = int((pow5 - 1) >> 1)
		pow5 = (pow5 * 5) & mask
	}
	return e
}

// EncodeAtLevel embeds values at an explicit level of the modulus chain.
func (e *Encoder) EncodeAtLevel(values []complex128, scale float64, level int) (*Plaintext, error) {
	n := e.ctx.Params.N()
	slots := e.ctx.Params.Slots()
	if len(values) > slots {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), slots)
	}
	if level < 0 || level > e.ctx.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d outside [0, %d]", level, e.ctx.MaxLevel())
	}
	if scale <= 0 {
		scale = e.ctx.Params.Scale()
	}
	// Conjugate-symmetric extension in orbit order: slot j's value lands
	// at natural index pos[j] (root ζ^(5^j)), its conjugate at the
	// mirrored index N−1−pos[j] (root ζ^(2N−5^j)).
	u := make([]complex128, n)
	for j, z := range values {
		k := e.pos[j]
		u[k] = z
		u[n-1-k] = cmplx.Conj(z)
	}
	coeffs := make([]int64, n)
	e.interpolate(u, scale, coeffs)
	pt := &Plaintext{Value: e.ctx.Tower.NewPoly(level + 1), Scale: scale, Level: level}
	e.ctx.Tower.FromInt64Into(coeffs, pt.Value)
	return pt, nil
}

// interpolate turns the conjugate-symmetric slot layout u (overwritten)
// into integer coefficients: c_k = Δ · ζ^{−k} · IDFT(u)_k (real by
// symmetry), rounded once; callers reduce them into whichever limbs they
// need.
func (e *Encoder) interpolate(u []complex128, scale float64, coeffs []int64) {
	fft(u, e.wInv)
	inv := 1 / float64(len(u))
	for k := range coeffs {
		c := real(u[k]*e.zetaInv[k]) * inv * scale
		coeffs[k] = int64(math.Round(c))
	}
}

// EncodeRealCoeffs is the allocation-free core of EncodeAtLevel for
// callers that reduce the coefficients limb by limb themselves
// (Evaluator.LinearFormInto, Evaluator.TrivialSubInto): it writes the N
// rounded integer coefficients of the encoding of the slot vector
// values + i·imag at the given scale (≤ 0 selects the default Δ) into
// coeffs, using work as FFT space. imag may be nil (a real vector) and
// either row may be shorter than the other; missing entries are zero.
// Both buffers must hold N entries and belong to the caller — the
// encoder itself stays immutable. The coefficients are level-independent:
// reducing them into limbs 0..ℓ gives exactly EncodeAtLevel's plaintext
// of complex(values[j], imag[j]) at level ℓ.
func (e *Encoder) EncodeRealCoeffs(values, imag []float64, scale float64, work []complex128, coeffs []int64) error {
	n := e.ctx.Params.N()
	if len(values) > n/2 || len(imag) > n/2 {
		return fmt.Errorf("ckks: %d real and %d imaginary values exceed %d slots", len(values), len(imag), n/2)
	}
	if len(work) != n || len(coeffs) != n {
		return fmt.Errorf("ckks: encode buffers hold %d and %d entries, want %d", len(work), len(coeffs), n)
	}
	if scale <= 0 {
		scale = e.ctx.Params.Scale()
	}
	for k := range work {
		work[k] = 0
	}
	for j := range max(len(values), len(imag)) {
		var re, im float64
		if j < len(values) {
			re = values[j]
		}
		if j < len(imag) {
			im = imag[j]
		}
		k, z := e.pos[j], complex(re, im)
		work[k] = z
		work[n-1-k] = cmplx.Conj(z)
	}
	e.interpolate(work, scale, coeffs)
	return nil
}

// spectrum evaluates pt at the primitive 2N-th roots into u (N entries):
// slot j's value times the scale lands at u[pos[j]].
func (e *Encoder) spectrum(pt *Plaintext, u []complex128) {
	tower := e.ctx.Tower
	for k := range u {
		u[k] = complex(tower.CenteredFloat(pt.Value, k), 0) * e.zetaFwd[k]
	}
	fft(u, e.wFwd)
}

// EncodeRealAtLevel encodes real values at an explicit level.
func (e *Encoder) EncodeRealAtLevel(values []float64, scale float64, level int) (*Plaintext, error) {
	z := make([]complex128, len(values))
	for i, v := range values {
		z[i] = complex(v, 0)
	}
	return e.EncodeAtLevel(z, scale, level)
}

// DecodeReal decodes and keeps the real parts: DecodeRealInto every slot
// of fresh buffers. Coefficients come back through the tower's centered
// reconstruction, exact up to q_0·q_1/2 ≈ 2¹⁰⁹ from two limbs up but only
// up to q_0/2 at level 0: a level-0 slot decodes while |m|·scale < q_0/2,
// |m| < 2⁹ at a 60-bit q_0 and a ≈50-bit scale (the matvec output bound,
// linalg.go).
func (e *Encoder) DecodeReal(pt *Plaintext) []float64 {
	out := make([]float64, e.ctx.Params.Slots())
	e.decodeRealInto(pt, make([]complex128, e.ctx.Params.N()), out)
	return out
}

// DecodeRealInto is the allocation-free core of DecodeReal: it writes the
// real parts of the first len(out) slots of pt into out, using work (N
// entries) as FFT space. Both buffers belong to the caller — the encoder
// itself stays immutable, so concurrent decodes need only their own work
// buffers. The values are bit-identical to DecodeReal's.
func (e *Encoder) DecodeRealInto(pt *Plaintext, work []complex128, out []float64) error {
	if n := e.ctx.Params.N(); len(work) != n || len(out) > n/2 {
		return fmt.Errorf("ckks: decode buffers hold %d and %d entries, want %d and at most %d", len(work), len(out), n, n/2)
	}
	e.decodeRealInto(pt, work, out)
	return nil
}

func (e *Encoder) decodeRealInto(pt *Plaintext, work []complex128, out []float64) {
	e.spectrum(pt, work)
	inv := complex(1/pt.Scale, 0)
	for j := range out {
		out[j] = real(work[e.pos[j]] * inv)
	}
}

// fft is an in-place iterative radix-2 FFT with the given twiddle table
// (wFwd for the forward transform, wInv for the inverse without the 1/n
// normalization).
func fft(a []complex128, w []complex128) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		step := n / length
		for start := 0; start < n; start += length {
			for k := 0; k < length/2; k++ {
				u := a[start+k]
				v := a[start+k+length/2] * w[k*step]
				a[start+k] = u + v
				a[start+k+length/2] = u - v
			}
		}
	}
}
