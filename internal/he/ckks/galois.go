package ckks

import (
	"errors"
	"fmt"

	"quhe/internal/he/ring"
)

// ErrNoGaloisKey reports a rotation whose Galois key is absent from the
// supplied key set. The serving layer maps it to a typed wire code so a
// client that uploaded the wrong rotation set gets a diagnosable failure
// instead of garbage slots.
var ErrNoGaloisKey = errors.New("ckks: missing galois key for rotation")

// GaloisKey switches a ciphertext from the rotated secret σ_g(s) back to
// s, enabling homomorphic slot rotation: part j is an RLWE zero-sample
// over the extended basis QP with the gadget (P mod q_j)·σ_g(s) added
// into limb j only — exactly the RelinKey construction with σ_g(s) in
// place of s², so the gadget is a SwitchingKey and the hybrid key-switch
// core is shared.
type GaloisKey struct {
	// Rot is the slot rotation this key implements (left by Rot); El is
	// its Galois group element 5^Rot mod 2N.
	Rot int
	El  uint64
	SwitchingKey
}

// GaloisKeySet holds the rotation keys of one session, keyed by Galois
// element. Immutable after construction; safe for concurrent readers.
type GaloisKeySet struct {
	Keys map[uint64]*GaloisKey
}

// Key returns the key for Galois element el, or nil.
func (s *GaloisKeySet) Key(el uint64) *GaloisKey {
	if s == nil {
		return nil
	}
	return s.Keys[el]
}

// GenGaloisKey builds the key switching σ_g(s) → s for a left rotation by
// rot slots; see GenGaloisKeyInto.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, rot int) *GaloisKey {
	gk := new(GaloisKey)
	kg.GenGaloisKeyInto(sk, rot, gk)
	return gk
}

// GenGaloisKeyInto builds the key GenGaloisKey(sk, rot) returns into gk,
// drawing the same randomness: gk's gadget is overwritten in place when it
// has the context's shape, so one GaloisKey serves a stream of keys that
// are each consumed (encoded, say) before the next is generated. gk must
// not be shared with a reader while it is rewritten.
func (kg *KeyGenerator) GenGaloisKeyInto(sk *SecretKey, rot int, gk *GaloisKey) {
	n := kg.ctx.Params.N()
	el := ring.GaloisElement(rot, n)
	kg.genSwitchingKeyInto(sk, ring.AutomorphismNTTTable(el, n), &gk.SwitchingKey)
	gk.Rot, gk.El = rot, el
}

// KeyRotations lists the rotations of rots that need a Galois key on a
// ring of degree n, in order: the identity (element 1, a rotation ≡ 0 mod
// slots) and a repeat of an element already listed are dropped. It is the
// order GenGaloisKeys draws its keys in, so generating these one by one
// with GenGaloisKeyInto from the same generator state reproduces the set
// bit for bit.
func KeyRotations(n int, rots []int) []int {
	seen := make(map[uint64]bool, len(rots))
	out := make([]int, 0, len(rots))
	for _, rot := range rots {
		el := ring.GaloisElement(rot, n)
		if el == 1 || seen[el] {
			continue
		}
		seen[el] = true
		out = append(out, rot)
	}
	return out
}

// GenGaloisKeys builds the key set for an explicit rotation list: one key
// per rotation of KeyRotations(rots).
func (kg *KeyGenerator) GenGaloisKeys(sk *SecretKey, rots []int) *GaloisKeySet {
	keyRots := KeyRotations(kg.ctx.Params.N(), rots)
	set := &GaloisKeySet{Keys: make(map[uint64]*GaloisKey, len(keyRots))}
	for _, rot := range keyRots {
		gk := kg.GenGaloisKey(sk, rot)
		set.Keys[gk.El] = gk
	}
	return set
}

// reduceRot normalizes a rotation to [0, slots).
func (ev *Evaluator) reduceRot(rot int) int {
	slots := ev.ctx.Params.Slots()
	r := rot % slots
	if r < 0 {
		r += slots
	}
	return r
}

// Hoisted carries a ciphertext decomposed for rotation reuse: the RNS
// digits of c1 lifted to every extended-basis limb in the NTT domain (the
// O(L²) ModUp done once), plus coefficient-domain copies of both
// components for the per-rotation c0 path and the identity case. One
// Hoisted is reused across blocks (HoistInto resizes in place); pair it
// with one evaluator like any scratch.
type Hoisted struct {
	level int
	scale float64
	c0    ring.RNSPoly
	c1    ring.RNSPoly
	// dig[j][t]: digit j of c1 reduced into extended-basis limb t, NTT
	// domain — ready for the per-rotation fused gather-MAC.
	dig []ring.RNSPoly
}

// NewHoisted allocates hoisting buffers sized for the context's maximum
// level.
func (ev *Evaluator) NewHoisted() *Hoisted {
	n := ev.ctx.Params.N()
	limbs := len(ev.ctx.Primes)
	qp := limbs + 1
	h := &Hoisted{
		c0:  make(ring.RNSPoly, limbs),
		c1:  make(ring.RNSPoly, limbs),
		dig: make([]ring.RNSPoly, limbs),
	}
	for i := 0; i < limbs; i++ {
		h.c0[i] = make(ring.Poly, n)
		h.c1[i] = make(ring.Poly, n)
		h.dig[i] = make(ring.RNSPoly, qp)
		for t := 0; t < qp; t++ {
			h.dig[i][t] = make(ring.Poly, n)
		}
	}
	return h
}

// HoistInto decomposes ct for rotation reuse: every digit of c1 is
// reduced into every extended-basis limb and transformed — O(L²) NTTs,
// fanned out over the worker pool — so each subsequent RotateHoistedInto
// costs only gather-MACs, the inverse transforms and one ModDown. k
// rotations cost ~1 decompose instead of k. It panics with ErrEvalForm on
// an evaluation-form ciphertext.
func (ev *Evaluator) HoistInto(h *Hoisted, ct *Ciphertext) {
	if ct.evalForm {
		panic(ErrEvalForm) // no error return; reaching here is a caller bug
	}
	for i := 0; i <= ct.Level; i++ {
		copy(h.c0[i], ct.C0[i])
		copy(h.c1[i], ct.C1[i])
	}
	ev.hoistDigits(h, ct, nil)
}

// hoistDigits fills h.dig from ct's c1. A caller that already holds the
// forward transform of c1 passes it as c1NTT — it is the diagonal
// dig[j][j], one transform per limb saved; nil has it computed here.
func (ev *Evaluator) hoistDigits(h *Hoisted, ct *Ciphertext, c1NTT ring.RNSPoly) {
	limbs := ct.Level + 1
	h.level, h.scale = ct.Level, ct.Scale
	qp := limbs + 1
	ring.ForEach(ev.ctx.Params.N(), limbs*qp, func(k int) {
		j, t := k/qp, k%qp
		mod, partIdx := ev.extLimb(t, ct.Level)
		src, dst := ct.C1[j], h.dig[j][t]
		switch {
		case partIdx != j:
			mod.ReduceInto(src, dst)
			mod.NTT(dst)
		case c1NTT != nil:
			copy(dst, c1NTT[j])
		default:
			copy(dst, src)
			mod.NTT(dst)
		}
	})
}

// hoistedSwitch key-switches σ(c1) of a hoisted ciphertext into
// ev.acc0/ev.acc1 over the extended basis, in keySwitch's output layout;
// tab is σ's NTT-domain gather table.
// The σ automorphism is applied to the decomposed digits as an NTT-domain
// gather fused into the inner product with the key — digit decomposition
// commutes with the automorphism (the permuted digits are a valid
// signed-representative decomposition of σ(c1)), so no per-rotation ModUp
// is needed.
func (ev *Evaluator) hoistedSwitch(h *Hoisted, gk *GaloisKey, tab []uint32) {
	limbs := h.level + 1
	ev.ctx.Tower.ForEachLimb(limbs+1, func(t int) {
		mod, partIdx := ev.extLimb(t, h.level)
		sum0 := mod.LazySum(ev.s1[t], ev.s2[t], ev.acc0[t])
		sum1 := mod.LazySum(ev.s3[t], ev.s4[t], ev.acc1[t])
		for j := 0; j < limbs; j++ {
			sum0.MulAddGather(h.dig[j][t], tab, gk.Parts[j][0][partIdx])
			sum1.MulAddGather(h.dig[j][t], tab, gk.Parts[j][1][partIdx])
		}
		sum0.Reduce()
		sum1.Reduce()
		if t > h.level {
			mod.INTT(ev.acc0[t])
			mod.INTT(ev.acc1[t])
		}
	})
}

// galoisKey resolves the key of a non-identity rotation.
func (ev *Evaluator) galoisKey(rot int, gks *GaloisKeySet) (*GaloisKey, error) {
	el := ring.GaloisElement(rot, ev.ctx.Params.N())
	gk := gks.Key(el)
	if gk == nil {
		return nil, fmt.Errorf("%w: rotation %d (element %d)", ErrNoGaloisKey, rot, el)
	}
	return gk, nil
}

// gatherTable returns the NTT-domain gather table of gk's automorphism.
func (ev *Evaluator) gatherTable(gk *GaloisKey) []uint32 {
	return ring.AutomorphismNTTTable(gk.El, ev.ctx.Params.N())
}

// RotateHoistedInto rotates a hoisted ciphertext left by rot into out
// without allocating: one gather-fused key switch of the shared
// decomposition (hoistedSwitch), the inverse transforms, one ModDown and
// the coefficient-domain automorphism of c0.
func (ev *Evaluator) RotateHoistedInto(h *Hoisted, rot int, gks *GaloisKeySet, out *Ciphertext) error {
	if err := coeffForm(out); err != nil {
		return err
	}
	tower := ev.ctx.Tower
	limbs := h.level + 1
	if ev.reduceRot(rot) == 0 {
		for i := 0; i < limbs; i++ {
			copy(out.C0[i], h.c0[i])
			copy(out.C1[i], h.c1[i])
		}
		out.Scale, out.Level = h.scale, h.level
		return nil
	}
	gk, err := ev.galoisKey(rot, gks)
	if err != nil {
		return err
	}
	ev.hoistedSwitch(h, gk, ev.gatherTable(gk))
	ev.keySwitchDown(h.level)
	tower.ForEachLimb(limbs, func(i int) {
		mod := tower.Qi[i]
		mod.AutomorphismCoeffs(h.c0[i], gk.El, ev.s0[i])
		mod.Add(ev.s0[i], ev.acc0[i], out.C0[i])
		copy(out.C1[i], ev.acc1[i])
	})
	out.Scale, out.Level = h.scale, h.level
	return nil
}

// rotateHoistedNTT is RotateHoistedInto between matvec stages: c0 is the
// hoisted ciphertext's c0 already in the NTT domain, the key switch comes
// down from QP without leaving that domain, and out receives the rotated
// pair in it — 2·(limbs+1) transforms and two limb fan-outs against
// RotateHoistedInto's 2·(limbs+1) plus the 2·limbs a caller would spend
// transforming its result again. rot must not be the identity.
func (ev *Evaluator) rotateHoistedNTT(h *Hoisted, c0 ring.RNSPoly, rot int, gks *GaloisKeySet, out *Ciphertext) error {
	gk, err := ev.galoisKey(rot, gks)
	if err != nil {
		return err
	}
	tab := ev.gatherTable(gk)
	ev.hoistedSwitch(h, gk, tab)
	ev.ctx.Tower.ForEachLimb(h.level+1, func(t int) {
		ev.switchedLimbNTT(t, h.level, c0[t], tab, out.C0[t], out.C1[t])
	})
	out.Scale, out.Level = h.scale, h.level
	return nil
}
