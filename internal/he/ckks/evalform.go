package ckks

import (
	"errors"
	"fmt"
	"math"

	"quhe/internal/he/ring"
)

// Evaluation form is the resident representation of a ciphertext that is
// only ever a multiplicand of public plaintexts: every limb of c0 and c1
// sits in the NTT domain and in Montgomery form, so a product with a
// plaintext costs one transform of the plaintext and two fused
// multiply-accumulates — the ciphertext itself is never transformed
// again. Context.EvalFormInto produces it (validating the source first),
// Evaluator.LinearFormInto is its only consumer, and everything else —
// arithmetic, rotations, decryption, the wire codec — refuses it with
// ErrEvalForm, because the limbs no longer mean what those operations
// assume.

// ErrEvalForm reports an evaluation-form ciphertext handed to an
// operation that needs coefficient form.
var ErrEvalForm = errors.New("ckks: ciphertext is in evaluation form")

// coeffForm rejects evaluation-form operands (and destinations: writing
// coefficient data under the tag would mislabel it).
func coeffForm(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct.evalForm {
			return ErrEvalForm
		}
	}
	return nil
}

// checkCiphertext validates a coefficient-form ciphertext from outside the
// trust boundary against the context: level inside the chain, one limb per
// level of N coefficients in both components, every residue below its
// prime, a usable scale. The lazy-reduction kernels assume all of it.
func (c *Context) checkCiphertext(ct *Ciphertext) error {
	if ct == nil {
		return fmt.Errorf("%w: nil ciphertext", ErrMalformed)
	}
	if ct.Level < 0 || ct.Level > c.MaxLevel() {
		return fmt.Errorf("%w: level %d outside [0, %d]", ErrMalformed, ct.Level, c.MaxLevel())
	}
	if len(ct.C0) != ct.Level+1 || len(ct.C1) != ct.Level+1 {
		return fmt.Errorf("%w: %d and %d limbs at level %d", ErrMalformed, len(ct.C0), len(ct.C1), ct.Level)
	}
	if !(ct.Scale > 0) || math.IsInf(ct.Scale, 0) {
		return fmt.Errorf("%w: scale %g", ErrMalformed, ct.Scale)
	}
	n := c.Params.N()
	for _, comp := range [2]ring.RNSPoly{ct.C0, ct.C1} {
		for i, limb := range comp {
			if len(limb) != n {
				return fmt.Errorf("%w: limb %d holds %d coefficients, want %d", ErrMalformed, i, len(limb), n)
			}
			q := c.Primes[i]
			for _, v := range limb {
				if v >= q {
					return fmt.Errorf("%w: unreduced residue in limb %d", ErrMalformed, i)
				}
			}
		}
	}
	return nil
}

// EvalFormInto validates the coefficient-form ciphertext ct against the
// context (ErrMalformed on a level, limb count or length that does not
// fit, or a residue ≥ q_i) and writes its evaluation form into out, which
// may be ct itself for an in-place conversion and otherwise needs at
// least ct's limbs. Nothing is written unless validation passes. Costs
// two forward transforms per limb.
func (c *Context) EvalFormInto(ct, out *Ciphertext) error {
	if ct != nil && ct.evalForm {
		return ErrEvalForm
	}
	if err := c.checkCiphertext(ct); err != nil {
		return err
	}
	limbs := ct.Level + 1
	if len(out.C0) < limbs || len(out.C1) < limbs {
		return fmt.Errorf("ckks: evaluation-form target has %d limbs, need %d", len(out.C0), limbs)
	}
	c.Tower.ForEachLimb(limbs, func(i int) {
		mod := c.Tower.Qi[i]
		for _, pr := range [2][2]ring.Poly{{ct.C0[i], out.C0[i]}, {ct.C1[i], out.C1[i]}} {
			src, dst := pr[0], pr[1]
			copy(dst, src)
			mod.NTT(dst)
			mod.MForm(dst, dst)
		}
	})
	out.Scale, out.Level, out.evalForm = ct.Scale, ct.Level, true
	return nil
}

// LinearFormInto sets out = Σ_j pt_j · keys[j] on limbs 0..level, where
// pt_j is the plaintext whose rounded integer coefficients are coeffs[j]
// (Encoder.EncodeRealCoeffs) at the given scale, and every key is in
// evaluation form at level ≥ level with one common scale. The whole sum
// stays in the NTT domain: per limb, each plaintext is reduced and
// transformed once and multiplied into two lazy inner products against
// the key's resident limbs (ring.LazySum: raw 128-bit accumulation, one
// Montgomery reduction per ⌊2⁶⁴/q_i⌋ terms), and the two sums come back
// to the coefficient domain once — keyLen+2
// transforms per limb and one limb fan-out, against 5·keyLen transforms
// and keyLen fan-outs for a MulPlainInto/AddInto chain, with a result
// that is bit-identical to that chain's (the same exact arithmetic mod
// q_i in a different order). Keys above level are read on their first
// level+1 limbs — in RNS a level drop is just that. out is a
// coefficient-form ciphertext with at least level+1 limbs, distinct from
// every key; its scale is the keys' times the plaintexts' (rescale
// afterwards).
func (ev *Evaluator) LinearFormInto(keys []*Ciphertext, coeffs [][]int64, scale float64, level int, out *Ciphertext) error {
	if len(keys) == 0 || len(keys) != len(coeffs) {
		return fmt.Errorf("ckks: linear form over %d ciphertexts and %d plaintexts", len(keys), len(coeffs))
	}
	if level < 0 || level > ev.ctx.MaxLevel() {
		return fmt.Errorf("ckks: level %d outside [0, %d]", level, ev.ctx.MaxLevel())
	}
	if err := coeffForm(out); err != nil {
		return err
	}
	if len(out.C0) <= level || len(out.C1) <= level {
		return fmt.Errorf("ckks: linear form target has %d limbs, need %d", len(out.C0), level+1)
	}
	n := ev.ctx.Params.N()
	for j, key := range keys {
		if !key.evalForm {
			return fmt.Errorf("ckks: linear form term %d is not in evaluation form", j)
		}
		if key.Level < level {
			return fmt.Errorf("ckks: level mismatch %d vs %d", key.Level, level)
		}
		if err := matchScales(key.Scale, keys[0].Scale); err != nil {
			return err
		}
		if len(coeffs[j]) != n {
			return fmt.Errorf("ckks: plaintext %d holds %d coefficients, want %d", j, len(coeffs[j]), n)
		}
	}
	tower := ev.ctx.Tower
	tower.ForEachLimb(level+1, func(i int) {
		mod := tower.Qi[i]
		m := ev.s0[i]
		sum0 := mod.LazySum(ev.s1[i], ev.s2[i], out.C0[i])
		sum1 := mod.LazySum(ev.s3[i], ev.s4[i], out.C1[i])
		for j, key := range keys {
			for k, v := range coeffs[j] {
				m[k] = mod.FromInt64(v)
			}
			mod.NTT(m)
			sum0.MulAdd(m, key.C0[i])
			sum1.MulAdd(m, key.C1[i])
		}
		sum0.Reduce()
		sum1.Reduce()
		mod.INTT(out.C0[i])
		mod.INTT(out.C1[i])
	})
	out.Scale, out.Level = keys[0].Scale*scale, level
	return nil
}

// TrivialSubInto sets out = (m, 0) − ct, where m is the plaintext with
// the given integer coefficients (Encoder.EncodeRealCoeffs) at ct's level
// and scale — Sub(Trivial(pt), ct) without materializing the plaintext,
// its trivial ciphertext or a zero c1. out needs ct's limbs and may alias
// ct.
func (ev *Evaluator) TrivialSubInto(coeffs []int64, scale float64, ct, out *Ciphertext) error {
	if err := coeffForm(ct, out); err != nil {
		return err
	}
	if err := matchScales(scale, ct.Scale); err != nil {
		return err
	}
	limbs := ct.Level + 1
	if len(coeffs) != ev.ctx.Params.N() || len(out.C0) < limbs || len(out.C1) < limbs {
		return fmt.Errorf("ckks: trivial-sub operands do not fit level %d", ct.Level)
	}
	ev.ctx.Tower.ForEachLimb(limbs, func(i int) {
		mod := ev.ctx.Tower.Qi[i]
		c0, o0 := ct.C0[i], out.C0[i]
		for k, v := range coeffs {
			o0[k] = ring.SubMod(mod.FromInt64(v), c0[k], mod.Q)
		}
		mod.Neg(ct.C1[i], out.C1[i])
	})
	out.Scale, out.Level = scale, ct.Level
	return nil
}
