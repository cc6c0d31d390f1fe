package ckks

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"quhe/internal/he/ring"
)

// Evaluator performs CKKS encryption, decryption and homomorphic
// arithmetic over one context. Encrypt and Decrypt return fresh outputs;
// every arithmetic operation is an Into method, the form the served paths
// run, which writes into a caller-provided ciphertext and allocates
// nothing. All methods share the evaluator's internal scratch buffers (and
// Encrypt its RNG), so an evaluator must not be used from multiple
// goroutines concurrently; create one evaluator per goroutine instead —
// contexts and keys are shared safely. Per-limb work inside one operation
// fans out through ring.ForEach over the bounded worker pool.
type Evaluator struct {
	ctx *Context
	rng *rand.Rand
	// Scratch towers with Depth+2 rows (the extended basis QP), reused by
	// every operation. MulRelinInto is the worst case: four operand
	// transforms, the degree-2 term in both domains, two key-switch
	// accumulators and the per-target digit buffers. Every inner product
	// (key-switch digit fold, hoisted gather, linear form, matvec diagonal
	// sum) is a pair of ring.LazySums whose 128-bit accumulator rows are
	// s1/s2 and s3/s4 of the limb being summed, so those four are dead
	// across any of them; a key switch reads its input from s6
	// (coefficient domain) and s5 (NTT domain).
	s0, s1, s2, s3, s4, s5, s6 ring.RNSPoly
	acc0, acc1, dig            ring.RNSPoly
	// Integer sampling buffers (one draw per coefficient, spread to limbs).
	iu, ie0, ie1 []int64
	// Matvec working set (hoisting + rotated babies), allocated on first
	// MatVecInto and reused; see linalg.go.
	mv *matvecScratch
}

// NewEvaluator builds an evaluator. seed=0 selects a fixed default.
func NewEvaluator(ctx *Context, seed int64) *Evaluator {
	if seed == 0 {
		seed = 1
	}
	n := ctx.Params.N()
	qp := len(ctx.Primes) + 1
	alloc := func() ring.RNSPoly {
		p := make(ring.RNSPoly, qp)
		for i := range p {
			p[i] = make(ring.Poly, n)
		}
		return p
	}
	return &Evaluator{
		ctx: ctx,
		rng: rand.New(rand.NewSource(seed)),
		s0:  alloc(), s1: alloc(), s2: alloc(), s3: alloc(),
		s4: alloc(), s5: alloc(), s6: alloc(),
		acc0: alloc(), acc1: alloc(), dig: alloc(),
		iu: make([]int64, n), ie0: make([]int64, n), ie1: make([]int64, n),
	}
}

// Encrypt encrypts a plaintext under the public key at the plaintext's
// level: (c0, c1) = (p0·u + e0 + m, p1·u + e1) with ternary u. The public
// key is stored in the NTT domain, so each limb costs one forward and two
// inverse transforms; limbs run in parallel.
func (ev *Evaluator) Encrypt(pk *PublicKey, pt *Plaintext) *Ciphertext {
	out := ev.ctx.NewCiphertext(pt.Level)
	// Sampling happens before any fan-out so the RNG stream order is fixed
	// regardless of the execution strategy.
	sigma := ev.ctx.Params.Sigma
	ternaryInts(ev.rng, ev.iu)
	gaussianInts(ev.rng, sigma, ev.ie0)
	gaussianInts(ev.rng, sigma, ev.ie1)
	ev.ctx.Tower.ForEachLimb(pt.Level+1, func(i int) {
		mod := ev.ctx.Tower.Qi[i]
		u, t0, t1 := ev.s0[i], ev.s1[i], ev.s2[i]
		for j, v := range ev.iu {
			u[j] = mod.FromInt64(v)
		}
		mod.NTT(u)
		mod.MulCoeffwiseMontgomery(u, pk.P0[i], t0)
		mod.INTT(t0)
		for j, v := range ev.ie0 {
			t0[j] = ring.AddMod(t0[j], mod.FromInt64(v), mod.Q)
		}
		mod.Add(t0, pt.Value[i], out.C0[i])
		mod.MulCoeffwiseMontgomery(u, pk.P1[i], t1)
		mod.INTT(t1)
		for j, v := range ev.ie1 {
			out.C1[i][j] = ring.AddMod(t1[j], mod.FromInt64(v), mod.Q)
		}
	})
	out.Scale = pt.Scale
	return out
}

// Decrypt recovers the plaintext m = c0 + c1·s at the ciphertext's level:
// DecryptInto a fresh plaintext. It panics with ErrEvalForm on an
// evaluation-form ciphertext.
func (ev *Evaluator) Decrypt(sk *SecretKey, ct *Ciphertext) *Plaintext {
	pt := &Plaintext{Value: ev.ctx.Tower.NewPoly(ct.Level + 1)}
	if err := ev.DecryptInto(sk, ct, pt); err != nil {
		panic(err) // no error return; reaching here is a caller bug
	}
	return pt
}

// DecryptInto writes the plaintext m = c0 + c1·s of ct into pt, reusing
// pt's limb storage when its capacity suffices (it is resized to the
// ciphertext's level and degree otherwise), so a client that decrypts
// every reply into one plaintext allocates nothing per reply but the
// limb fan-out. pt takes ct's scale and level. An evaluation-form
// ciphertext fails with ErrEvalForm and leaves pt untouched.
func (ev *Evaluator) DecryptInto(sk *SecretKey, ct *Ciphertext, pt *Plaintext) error {
	if ct.evalForm {
		return ErrEvalForm
	}
	m := reuseRNS(pt.Value, ct.Level+1, ev.ctx.Params.N())
	ev.ctx.Tower.ForEachLimb(ct.Level+1, func(i int) {
		mod := ev.ctx.Tower.Qi[i]
		t := ev.s0[i]
		copy(t, ct.C1[i])
		mod.NTT(t)
		mod.MulCoeffwiseMontgomery(t, sk.S[i], t)
		mod.INTT(t)
		mod.Add(t, ct.C0[i], m[i])
	})
	pt.Value, pt.Scale, pt.Level = m, ct.Scale, ct.Level
	return nil
}

// AddInto sets out = a + b without allocating. Levels and scales must
// match; out may alias a or b.
func (ev *Evaluator) AddInto(a, b, out *Ciphertext) error {
	if err := ev.matchLevels(a, b); err != nil {
		return err
	}
	if err := coeffForm(out); err != nil {
		return err
	}
	ev.ctx.Tower.ForEachLimb(a.Level+1, func(i int) {
		mod := ev.ctx.Tower.Qi[i]
		mod.Add(a.C0[i], b.C0[i], out.C0[i])
		mod.Add(a.C1[i], b.C1[i], out.C1[i])
	})
	out.Scale, out.Level = a.Scale, a.Level
	return nil
}

// MulPlainInto sets out = ct·pt without allocating; the output scale is
// the product of scales (rescale afterwards to come back down). Levels must
// match; out may alias ct.
func (ev *Evaluator) MulPlainInto(ct *Ciphertext, pt *Plaintext, out *Ciphertext) error {
	if err := coeffForm(ct, out); err != nil {
		return err
	}
	if ct.Level != pt.Level {
		return fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	ev.ctx.Tower.ForEachLimb(ct.Level+1, func(i int) {
		mod := ev.ctx.Tower.Qi[i]
		m := ev.s0[i]
		copy(m, pt.Value[i])
		mod.NTT(m)
		copy(out.C0[i], ct.C0[i])
		mod.NTT(out.C0[i])
		mod.MulCoeffwise(out.C0[i], m, out.C0[i])
		mod.INTT(out.C0[i])
		copy(out.C1[i], ct.C1[i])
		mod.NTT(out.C1[i])
		mod.MulCoeffwise(out.C1[i], m, out.C1[i])
		mod.INTT(out.C1[i])
	})
	out.Scale, out.Level = ct.Scale*pt.Scale, ct.Level
	return nil
}

// MulRelinInto multiplies two ciphertexts and relinearizes the degree-2
// term with rlk, writing into out without allocating (out may alias a or
// b). The pipeline is per-limb throughout: one forward-transform fan-out
// for all four operand components, pointwise tensoring, hybrid key
// switching of the degree-2 term over the extended basis QP, ModDown back
// to the chain and the final inverse transforms. A square (a == b, the
// same pointer) transforms two operand components instead of four and
// forms the tensor as (â0², 2·â0·â1, â1²) — the same residues as the
// general product, since every pointwise product is reduced exactly.
func (ev *Evaluator) MulRelinInto(a, b *Ciphertext, rlk *RelinKey, out *Ciphertext) error {
	if rlk == nil || len(rlk.Parts) == 0 {
		return errors.New("ckks: nil relinearization key")
	}
	if a.Level != b.Level {
		return fmt.Errorf("ckks: level mismatch %d vs %d", a.Level, b.Level)
	}
	if err := coeffForm(a, b, out); err != nil {
		return err
	}
	tower := ev.ctx.Tower
	limbs := a.Level + 1
	n := ev.ctx.Params.N()

	// Forward transforms of the operand components, one fan-out of
	// independent tasks: a's two, then b's two unless b is a.
	square := a == b
	comps := 4
	if square {
		comps = 2
	}
	ring.ForEach(n, comps*limbs, func(k int) {
		pr := [4][2]ring.RNSPoly{{ev.s0, a.C0}, {ev.s1, a.C1}, {ev.s2, b.C0}, {ev.s3, b.C1}}[k%comps]
		dst, in := pr[0][k/comps], pr[1][k/comps]
		copy(dst, in)
		tower.Qi[k/comps].NTT(dst)
	})

	// Tensor per limb: (d̂0, d̂1, d̂2) = (â0·b̂0, â0·b̂1 + â1·b̂0, â1·b̂1).
	// d̂0 and d̂1 wait in out's rows (the operands were copied out above, so
	// aliasing is safe); d2 is kept in both domains — its NTT rows are the
	// key switch's digit i on limb i, its coefficients every other digit.
	tower.ForEachLimb(limbs, func(i int) {
		mod := tower.Qi[i]
		if square {
			mod.MulCoeffwise(ev.s0[i], ev.s0[i], out.C0[i]) // d̂0 = â0²
			mod.MulCoeffwise(ev.s0[i], ev.s1[i], out.C1[i]) // â0·â1
			mod.Add(out.C1[i], out.C1[i], out.C1[i])        // d̂1 = 2·â0·â1
			mod.MulCoeffwise(ev.s1[i], ev.s1[i], ev.s5[i])  // d̂2 = â1²
		} else {
			mod.MulCoeffwise(ev.s0[i], ev.s2[i], out.C0[i])        // d̂0
			mod.MulCoeffwise(ev.s0[i], ev.s3[i], out.C1[i])        // d̂1
			mod.MulCoeffwiseThenAdd(ev.s1[i], ev.s2[i], out.C1[i]) // d̂1 += â1·b̂0
			mod.MulCoeffwise(ev.s1[i], ev.s3[i], ev.s5[i])         // d̂2
		}
		copy(ev.s6[i], ev.s5[i])
		mod.INTT(ev.s6[i])
	})

	// Hybrid key switch of d2 over the extended basis, then back to the
	// coefficient domain and down from QP to Q.
	ev.keySwitch(ev.s6, ev.s5, rlk.Parts, a.Level)
	ev.keySwitchDown(a.Level)

	// out = (INTT(d̂0) + acc0, INTT(d̂1) + acc1).
	tower.ForEachLimb(limbs, func(i int) {
		mod := tower.Qi[i]
		mod.INTT(out.C0[i])
		mod.Add(out.C0[i], ev.acc0[i], out.C0[i])
		mod.INTT(out.C1[i])
		mod.Add(out.C1[i], ev.acc1[i], out.C1[i])
	})
	out.Scale, out.Level = a.Scale*b.Scale, a.Level
	return nil
}

// extLimb returns limb t of the extended basis at the given level — chain
// limbs 0..level, then the special limb at index level+1 — and the index
// of that limb inside key-switch parts (where the special limb sits after
// the full chain).
func (ev *Evaluator) extLimb(t, level int) (mod *ring.Modulus, partIdx int) {
	tower := ev.ctx.Tower
	if t <= level {
		return tower.Qi[t], t
	}
	return tower.P, tower.Limbs()
}

// keySwitch folds the RNS digits of d (limbs 0..level, given in both
// domains: d its coefficients, dNTT their forward transform; neither is
// modified) through hybrid key-switch parts (a RelinKey's or GaloisKey's
// gadget) into ev.acc0/ev.acc1 over the extended basis. The fan-out is
// over target limbs — each target reduces every foreign digit into its
// modulus and transforms it (its own digit it reads from dNTT), and folds
// them through the key's limb as two lazy inner products, one reduction
// per sum; targets are independent, so the O(L²) digit transforms
// parallelize across limbs. The chain limbs of the accumulators are left
// in the NTT domain and the special limb (index level+1) already back in
// the coefficient domain, which is where both ways down — keySwitchDown
// and the NTT-domain switchedLimbNTT — need it.
func (ev *Evaluator) keySwitch(d, dNTT ring.RNSPoly, parts [][2]ring.RNSPoly, level int) {
	limbs := level + 1
	ev.ctx.Tower.ForEachLimb(limbs+1, func(t int) {
		mod, partIdx := ev.extLimb(t, level)
		dig := ev.dig[t]
		sum0 := mod.LazySum(ev.s1[t], ev.s2[t], ev.acc0[t])
		sum1 := mod.LazySum(ev.s3[t], ev.s4[t], ev.acc1[t])
		for j := 0; j < limbs; j++ {
			term := dig
			if partIdx == j {
				term = dNTT[j]
			} else {
				mod.ReduceInto(d[j], dig)
				mod.NTT(dig)
			}
			sum0.MulAdd(term, parts[j][0][partIdx])
			sum1.MulAdd(term, parts[j][1][partIdx])
		}
		sum0.Reduce()
		sum1.Reduce()
		if t > level {
			mod.INTT(ev.acc0[t])
			mod.INTT(ev.acc1[t])
		}
	})
}

// keySwitchDown finishes a key switch in the coefficient domain: the
// chain limbs of ev.acc0/ev.acc1 are inverse-transformed and dropped from
// QP to Q via the tower's exact ModDown against the special limb, leaving
// the switched pair in ev.acc0[:level+1]/ev.acc1[:level+1].
func (ev *Evaluator) keySwitchDown(level int) {
	tower := ev.ctx.Tower
	limbs := level + 1
	ring.ForEach(ev.ctx.Params.N(), 2*limbs, func(k int) {
		acc := [2]ring.RNSPoly{ev.acc0, ev.acc1}[k%2]
		tower.Qi[k/2].INTT(acc[k/2])
	})
	tower.ModDownInto(ev.acc0[:limbs], ev.acc0[limbs], ev.acc0[:limbs])
	tower.ModDownInto(ev.acc1[:limbs], ev.acc1[limbs], ev.acc1[:limbs])
}

// switchedLimbNTT finishes a key switch of a rotation on chain limb t
// without leaving the NTT domain: it divides limb t of ev.acc0/ev.acc1 by
// P where they are (ring.Tower.ModDownNTT) and writes the rotated pair
// (σ(c0) + acc0, acc1) into out0/out1, σ(c0) being the gather of c0's
// NTT-domain limb through tab. out0 may alias c0. Runs inside a per-limb
// fan-out; s0..s2 of limb t are its scratch.
func (ev *Evaluator) switchedLimbNTT(t, level int, c0 ring.Poly, tab []uint32, out0, out1 ring.Poly) {
	tower := ev.ctx.Tower
	sp := level + 1
	ring.ApplyAutomorphismNTT(c0, tab, ev.s0[t])
	tower.ModDownNTT(t, ev.acc0[t], ev.acc0[sp], ev.s1[t], ev.acc0[t])
	tower.Qi[t].Add(ev.s0[t], ev.acc0[t], out0)
	tower.ModDownNTT(t, ev.acc1[t], ev.acc1[sp], ev.s2[t], out1)
}

// RescaleInto divides the ciphertext by its level's prime and switches it
// down one level — the exact RNS rescale dropping the top limb — writing
// into out without allocating (out may alias ct).
func (ev *Evaluator) RescaleInto(ct, out *Ciphertext) error {
	if err := coeffForm(ct, out); err != nil {
		return err
	}
	if ct.Level == 0 {
		return errors.New("ckks: cannot rescale below level 0")
	}
	tower := ev.ctx.Tower
	tower.RescaleInto(ct.C0[:ct.Level+1], out.C0[:ct.Level])
	tower.RescaleInto(ct.C1[:ct.Level+1], out.C1[:ct.Level])
	out.Scale, out.Level = ct.Scale/float64(ev.ctx.Primes[ct.Level]), ct.Level-1
	return nil
}

func (ev *Evaluator) matchLevels(a, b *Ciphertext) error {
	if err := coeffForm(a, b); err != nil {
		return err
	}
	if a.Level != b.Level {
		return fmt.Errorf("ckks: level mismatch %d vs %d", a.Level, b.Level)
	}
	return matchScales(a.Scale, b.Scale)
}

// matchScales enforces equal scales within floating tolerance.
func matchScales(a, b float64) error {
	if math.Abs(a-b) > 1e-6*math.Max(a, b) {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", a, b)
	}
	return nil
}
