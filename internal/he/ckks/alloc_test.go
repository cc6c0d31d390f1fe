package ckks

import (
	"errors"
	"fmt"

	"quhe/internal/he/ring"
)

// The allocating forms of the CKKS operations, which keep the op tests
// short. Served paths run the Into forms these wrap.

// subLimb sets out = a − b modulo the limb's prime. Slices may alias.
func subLimb(mod *ring.Modulus, a, b, out ring.Poly) {
	for i := range out {
		out[i] = ring.SubMod(a[i], b[i], mod.Q)
	}
}

// Encode embeds complex values at the top level; see EncodeAtLevel.
func (e *Encoder) Encode(values []complex128, scale float64) (*Plaintext, error) {
	return e.EncodeAtLevel(values, scale, e.ctx.MaxLevel())
}

// EncodeReal encodes real-valued slots at the top level.
func (e *Encoder) EncodeReal(values []float64, scale float64) (*Plaintext, error) {
	return e.EncodeRealAtLevel(values, scale, e.ctx.MaxLevel())
}

// Decode recovers the complex slot vector, dividing by the scale.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	out := make([]complex128, e.ctx.Params.Slots())
	e.decode(pt, out)
	inv := complex(1/pt.Scale, 0)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// Trivial wraps a plaintext as the ciphertext (m, 0), which any key decrypts.
func (ev *Evaluator) Trivial(pt *Plaintext) *Ciphertext {
	return &Ciphertext{
		C0:    pt.Value.Copy(),
		C1:    ev.ctx.Tower.NewPoly(pt.Level + 1),
		Scale: pt.Scale,
		Level: pt.Level,
	}
}

// Add returns a + b. Levels and scales must match.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.matchLevels(a, b); err != nil {
		return nil, err
	}
	out := ev.ctx.NewCiphertext(a.Level)
	if err := ev.AddInto(a, b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubInto sets out = a − b. Levels and scales must match; out may alias.
func (ev *Evaluator) SubInto(a, b, out *Ciphertext) error {
	if err := ev.matchLevels(a, b); err != nil {
		return err
	}
	if err := coeffForm(out); err != nil {
		return err
	}
	for i := 0; i <= a.Level; i++ {
		mod := ev.ctx.Tower.Qi[i]
		subLimb(mod, a.C0[i], b.C0[i], out.C0[i])
		subLimb(mod, a.C1[i], b.C1[i], out.C1[i])
	}
	out.Scale, out.Level = a.Scale, a.Level
	return nil
}

// Sub returns a − b. Levels and scales must match.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := ev.matchLevels(a, b); err != nil {
		return nil, err
	}
	out := ev.ctx.NewCiphertext(a.Level)
	if err := ev.SubInto(a, b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AddPlain returns ct + pt. Levels and scales must match.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := coeffForm(ct); err != nil {
		return nil, err
	}
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	if err := matchScales(ct.Scale, pt.Scale); err != nil {
		return nil, err
	}
	out := ct.Copy()
	for i := 0; i <= ct.Level; i++ {
		ev.ctx.Tower.Qi[i].Add(out.C0[i], pt.Value[i], out.C0[i])
	}
	return out, nil
}

// MulPlain returns ct·pt; see MulPlainInto.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	out := ev.ctx.NewCiphertext(ct.Level)
	if err := ev.MulPlainInto(ct, pt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MulRelin returns the relinearized product a·b; see MulRelinInto.
func (ev *Evaluator) MulRelin(a, b *Ciphertext, rlk *RelinKey) (*Ciphertext, error) {
	if rlk == nil || len(rlk.Parts) == 0 {
		return nil, errors.New("ckks: nil relinearization key")
	}
	if a.Level != b.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", a.Level, b.Level)
	}
	out := ev.ctx.NewCiphertext(a.Level)
	if err := ev.MulRelinInto(a, b, rlk, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Rescale returns ct rescaled one level down; see RescaleInto.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, errors.New("ckks: cannot rescale below level 0")
	}
	out := ev.ctx.NewCiphertext(ct.Level - 1)
	if err := ev.RescaleInto(ct, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DropLevelInto reduces ct to a lower level by dropping limbs, writing into
// out (which may alias ct). The scale is unchanged.
func (ev *Evaluator) DropLevelInto(ct *Ciphertext, level int, out *Ciphertext) error {
	if err := coeffForm(ct, out); err != nil {
		return err
	}
	if level < 0 || level > ct.Level {
		return fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, level)
	}
	for i := 0; i <= level; i++ {
		copy(out.C0[i], ct.C0[i])
		copy(out.C1[i], ct.C1[i])
	}
	out.Scale, out.Level = ct.Scale, level
	return nil
}

// DropLevel returns ct reduced to a lower level; see DropLevelInto.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if err := coeffForm(ct); err != nil {
		return nil, err
	}
	if level < 0 || level > ct.Level {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, level)
	}
	if level == ct.Level {
		return ct.Copy(), nil
	}
	out := ev.ctx.NewCiphertext(level)
	if err := ev.DropLevelInto(ct, level, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RotateInto rotates the slot vector left by rot (negative = right) into
// out, which may alias ct: one coefficient-domain automorphism of both
// components plus one unhoisted key switch of σ(c1).
func (ev *Evaluator) RotateInto(ct *Ciphertext, rot int, gks *GaloisKeySet, out *Ciphertext) error {
	if err := coeffForm(ct, out); err != nil {
		return err
	}
	if ev.reduceRot(rot) == 0 {
		if out != ct {
			return ev.DropLevelInto(ct, ct.Level, out)
		}
		return nil
	}
	gk, err := ev.galoisKey(rot, gks, ct.Level)
	if err != nil {
		return err
	}
	el := gk.El
	tower := ev.ctx.Tower
	limbs := ct.Level + 1
	// σ(c1) in the coefficient domain (and transformed, for its own limb's
	// digit), then key-switch it from σ(s) to s.
	tower.ForEachLimb(limbs, func(i int) {
		mod := tower.Qi[i]
		mod.AutomorphismCoeffs(ct.C1[i], el, ev.s6[i])
		copy(ev.s5[i], ev.s6[i])
		mod.NTT(ev.s5[i])
	})
	ev.keySwitch(ev.s6, ev.s5, gk.Parts, ct.Level)
	ev.keySwitchDown(ct.Level)
	// out = (σ(c0) + acc0, acc1).
	tower.ForEachLimb(limbs, func(i int) {
		mod := tower.Qi[i]
		mod.AutomorphismCoeffs(ct.C0[i], el, ev.s0[i])
		mod.Add(ev.s0[i], ev.acc0[i], out.C0[i])
		copy(out.C1[i], ev.acc1[i])
	})
	out.Scale, out.Level = ct.Scale, ct.Level
	return nil
}

// Rotate returns the slot vector rotated left by rot; see RotateInto.
func (ev *Evaluator) Rotate(ct *Ciphertext, rot int, gks *GaloisKeySet) (*Ciphertext, error) {
	out := ev.ctx.NewCiphertext(ct.Level)
	if err := ev.RotateInto(ct, rot, gks, out); err != nil {
		return nil, err
	}
	return out, nil
}
