package ckks

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Encoder maps complex slot vectors to ring plaintexts through the
// canonical embedding: slot j of a plaintext m holds m(ζ^(5^j mod 2N)),
// ζ = exp(iπ/N), divided by the scale Δ; encoding scales by Δ and rounds.
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
// The transform is half length. Since 5^j ≡ 1 mod 4, X^{N/2} evaluates
// to i^(5^j) = i in every slot, so m(ζ^(5^j)) = Σ_{k<N/2} (c_k +
// i·c_{k+N/2})·ζ^(5^j·k): one N/2-point "special" FFT over the orbit maps
// the coefficient pairs to the slots. Encoding runs it inverse and reads
// coefficients 0…N/2−1 from the real parts, N/2…N−1 from the imaginary
// ones; decoding runs it forward. Its tables belong to the Context (built
// once by NewContext and carried over by WithKeyLevels), so an encoder is
// the context alone.
//
// Encoders are immutable and safe for concurrent use.
type Encoder struct {
	ctx *Context
}

// NewEncoder builds an encoder for the context.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// specialFFT holds the tables of the N/2-point special FFT. Stage h of
// the forward transform (h = 1, 2, …, N/4: butterflies h apart) multiplies
// by exp(2πi·(5^j mod 8h)/8h), j < h; fwd holds those twiddles stage by
// stage in the order the Cooley–Tukey loop reads them, inv their
// conjugates in the order of the Gentleman–Sande loop (h = N/4, …, 1).
// rev is the bit-reversal permutation of N/2 indices. Read-only.
type specialFFT struct {
	fwd, inv []complex128
	rev      []uint32
}

func newSpecialFFT(slots int) *specialFFT {
	f := &specialFFT{
		fwd: make([]complex128, 0, slots),
		inv: make([]complex128, 0, slots),
		rev: make([]uint32, slots),
	}
	for h := 1; h < slots; h <<= 1 {
		for j, pow5 := 0, 1; j < h; j, pow5 = j+1, pow5*5%(8*h) {
			f.fwd = append(f.fwd, cmplx.Rect(1, 2*math.Pi*float64(pow5)/float64(8*h)))
		}
	}
	for h := slots / 2; h >= 1; h >>= 1 {
		for _, w := range f.fwd[h-1 : 2*h-1] {
			f.inv = append(f.inv, cmplx.Conj(w))
		}
	}
	shift := 32 - bits.Len(uint(slots-1))
	for k := range f.rev {
		f.rev[k] = bits.Reverse32(uint32(k)) >> shift
	}
	return f
}

// forward runs the Cooley–Tukey stages over a, which holds the coefficient
// pairs c_k + i·c_{k+N/2} at rev[k]; it leaves slot j's value at a[j].
func (f *specialFFT) forward(a []complex128) {
	w := f.fwd
	for h := 1; h < len(a); h <<= 1 {
		tw := w[:h]
		w = w[h:]
		for i := 0; i < len(a); i += 2 * h {
			x, y := a[i:i+h], a[i+h:i+2*h]
			x, y = x[:len(tw)], y[:len(tw)]
			for j, wj := range tw {
				u, v := x[j], y[j]*wj
				x[j], y[j] = u+v, u-v
			}
		}
	}
}

// inverse runs the Gentleman–Sande stages over the slot vector a; it
// leaves N/2 times the coefficient pair c_k + i·c_{k+N/2} at a[rev[k]].
func (f *specialFFT) inverse(a []complex128) {
	w := f.inv
	for h := len(a) / 2; h >= 1; h >>= 1 {
		tw := w[:h]
		w = w[h:]
		for i := 0; i < len(a); i += 2 * h {
			x, y := a[i:i+h], a[i+h:i+2*h]
			x, y = x[:len(tw)], y[:len(tw)]
			for j, wj := range tw {
				u, v := x[j], y[j]
				x[j], y[j] = u+v, (u-v)*wj
			}
		}
	}
}

// EncodeAtLevel embeds values at an explicit level of the modulus chain.
func (e *Encoder) EncodeAtLevel(values []complex128, scale float64, level int) (*Plaintext, error) {
	work := make([]complex128, e.ctx.Params.Slots())
	if len(values) > len(work) {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), len(work))
	}
	copy(work, values)
	return e.plaintext(work, scale, level)
}

// EncodeRealAtLevel encodes real values at an explicit level.
func (e *Encoder) EncodeRealAtLevel(values []float64, scale float64, level int) (*Plaintext, error) {
	work := make([]complex128, e.ctx.Params.Slots())
	if len(values) > len(work) {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), len(work))
	}
	for j, v := range values {
		work[j] = complex(v, 0)
	}
	return e.plaintext(work, scale, level)
}

// plaintext encodes the slot vector in work (overwritten) at the level.
func (e *Encoder) plaintext(work []complex128, scale float64, level int) (*Plaintext, error) {
	if level < 0 || level > e.ctx.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d outside [0, %d]", level, e.ctx.MaxLevel())
	}
	if scale <= 0 {
		scale = e.ctx.Params.Scale()
	}
	coeffs := make([]int64, e.ctx.Params.N())
	e.encode(work, scale, coeffs)
	pt := &Plaintext{Value: e.ctx.Tower.NewPoly(level + 1), Scale: scale, Level: level}
	e.ctx.Tower.FromInt64Into(coeffs, pt.Value)
	return pt, nil
}

// encode turns the slot vector in work (N/2 entries, overwritten) into
// the N integer coefficients round(scale·c_k), rounded once; callers
// reduce them into whichever limbs they need.
func (e *Encoder) encode(work []complex128, scale float64, coeffs []int64) {
	f := e.ctx.fft
	f.inverse(work)
	s := scale / float64(len(work))
	lo, hi := coeffs[:len(f.rev)], coeffs[len(f.rev):]
	for k, r := range f.rev {
		c := work[r]
		lo[k] = int64(math.Round(real(c) * s))
		hi[k] = int64(math.Round(imag(c) * s))
	}
}

// EncodeRealCoeffs is the allocation-free core of EncodeAtLevel for
// callers that reduce the coefficients limb by limb themselves
// (Evaluator.LinearFormInto, Evaluator.TrivialSubInto): it writes the N
// rounded integer coefficients of the encoding of the slot vector
// values + i·imag at the given scale (≤ 0 selects the default Δ) into
// coeffs, using work (N/2 entries) as FFT space. imag may be nil (a real
// vector) and either row may be shorter than the other; missing entries
// are zero. Both buffers belong to the caller — the encoder itself stays
// immutable. The coefficients are level-independent: reducing them into
// limbs 0..ℓ gives exactly EncodeAtLevel's plaintext of
// complex(values[j], imag[j]) at level ℓ.
func (e *Encoder) EncodeRealCoeffs(values, imag []float64, scale float64, work []complex128, coeffs []int64) error {
	n := e.ctx.Params.N()
	if len(values) > n/2 || len(imag) > n/2 {
		return fmt.Errorf("ckks: %d real and %d imaginary values exceed %d slots", len(values), len(imag), n/2)
	}
	if len(work) != n/2 || len(coeffs) != n {
		return fmt.Errorf("ckks: encode buffers hold %d and %d entries, want %d and %d", len(work), len(coeffs), n/2, n)
	}
	if scale <= 0 {
		scale = e.ctx.Params.Scale()
	}
	for j := range work {
		var re, im float64
		if j < len(values) {
			re = values[j]
		}
		if j < len(imag) {
			im = imag[j]
		}
		work[j] = complex(re, im)
	}
	e.encode(work, scale, coeffs)
	return nil
}

// decode writes the slots of pt times its scale into work (N/2 entries).
func (e *Encoder) decode(pt *Plaintext, work []complex128) {
	f, tower := e.ctx.fft, e.ctx.Tower
	for k, r := range f.rev {
		work[r] = complex(tower.CenteredFloat(pt.Value, k), tower.CenteredFloat(pt.Value, k+len(f.rev)))
	}
	f.forward(work)
}

// DecodeReal decodes and keeps the real parts: DecodeRealInto every slot
// of fresh buffers. Coefficients come back through the tower's centered
// reconstruction, exact up to q_0·q_1/2 ≈ 2¹⁰⁹ from two limbs up but only
// up to q_0/2 at level 0: a level-0 slot decodes while |m|·scale < q_0/2,
// |m| < 2⁹ at a 60-bit q_0 and a ≈50-bit scale (the matvec output bound,
// linalg.go).
func (e *Encoder) DecodeReal(pt *Plaintext) []float64 {
	out := make([]float64, e.ctx.Params.Slots())
	e.decodeRealInto(pt, make([]complex128, len(out)), out)
	return out
}

// DecodeRealInto is the allocation-free core of DecodeReal: it writes the
// real parts of the first len(out) slots of pt into out, using work (N/2
// entries) as FFT space. Both buffers belong to the caller — the encoder
// itself stays immutable, so concurrent decodes need only their own work
// buffers. The values are bit-identical to DecodeReal's.
func (e *Encoder) DecodeRealInto(pt *Plaintext, work []complex128, out []float64) error {
	if slots := e.ctx.Params.Slots(); len(work) != slots || len(out) > slots {
		return fmt.Errorf("ckks: decode buffers hold %d and %d entries, want %d and at most %d", len(work), len(out), slots, slots)
	}
	e.decodeRealInto(pt, work, out)
	return nil
}

func (e *Encoder) decodeRealInto(pt *Plaintext, work []complex128, out []float64) {
	e.decode(pt, work)
	inv := 1 / pt.Scale
	for j := range out {
		out[j] = real(work[j]) * inv
	}
}
