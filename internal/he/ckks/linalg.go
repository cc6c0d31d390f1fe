package ckks

import (
	"fmt"
	"math"

	"quhe/internal/he/ring"
)

// Packed encrypted linear algebra: the diagonal method with baby-step/
// giant-step rotation structure (Halevi–Shoup). An n×n matrix times a
// packed vector decomposes over the n generalized diagonals,
//
//	Mv = Σ_d diag_d ⊙ rot_d(v),
//
// and splitting d = k·n1 + i with n1 ≈ √n regroups the sum as
//
//	Mv = Σ_k rot_{k·n1}(û_k),  û_k = Σ_i rot_{−k·n1}(diag_{k·n1+i}) ⊙ rot_i(v),
//
// so only n1−1 baby rotations of v plus n2−1 giant rotations of the inner
// sums are needed — O(√n) key switches instead of O(n). The giant
// rotations are evaluated by Horner's rule, from the highest non-empty
// block K down,
//
//	acc ← û_K;  acc ← rot_{n1}(acc) + û_k  for k = K−1, …, 0,
//
// so every giant step is a rotation by n1 under one Galois key, and a
// session uploads n1 keys (rotations 1…n1). The baby
// rotations all act on the same input, so the evaluator hoists them: one
// O(L²) decomposition of v shared by every baby step. The pre-rotations
// of the diagonals are free — they fold into the plaintext encoding at
// plan-build time.
//
// Sparse matrices. The chain pays one giant step per block below K,
// empty or not: an empty block adds nothing but is still rotated over,
// since skipping it would need a key for a multiple of n1. A plan with
// top block K runs n1−1 + K key switches (MatVecPlan.KeySwitches);
// served models are dense, K = n2−1.
//
// Packing contract: n must divide the slot count and the input vector
// must be replicated slots/n times (slot j holds v[j mod n]), so every
// cyclic slot rotation by d < n acts as rotation mod n on each copy. The
// result comes back in the same replicated layout. The diagonals are real,
// so real and imaginary parts stay apart: the real parts of the result
// are M times the real parts of the input, whatever the input's imaginary
// parts hold (a transciphered block carries key-dependent values there).
//
// Headroom: the result keeps the input scale, MatVecLevels below the
// input. On the served chain that is level 0, one 60-bit limb, so every
// result slot has to satisfy |M·v + bias|·scale < q_0/2 to decode — with
// a ≈50-bit scale, |M·v + bias| < 2⁹, imaginary parts included.
// TestLevelZeroHeadroom decodes level-0 values up to 2⁸ on every served
// chain. The benchmark's dense models (entries up to 1/√n, |v| ≤ 1,
// |bias| ≤ 0.5) stay below √n + 0.5 = 16.5 at n = 256 by construction,
// below 9.5 by their largest row sums, and read at most 1.71 on their
// payloads (seeds 1, 2, 7); examples/securenlp's 8×8 stays below 1.12
// and reads 0.52. The imaginary parts a transciphered input carries
// (|Im| ≤ 0.12) add at most 0.12·√n ≈ 1.9 at n = 256.
//
// Transform budget. MatVecInto keeps the whole kernel in the NTT domain.
// The input is transformed once; each baby rotation key-switches the
// shared decomposition and comes down from QP where it is
// (rotateHoistedNTT); a giant block's inner sum over its non-empty
// diagonals is a pair of lazy inner products per limb (ring.LazySum: one
// Montgomery reduction per sum, not per term); a giant step gathers
// σ(acc) in the NTT domain and inverse-transforms only σ(acc1), whose
// coefficients the digit decomposition needs; and the accumulated sum is
// inverse-transformed once, before the rescale. Limb transforms per call
// at level ℓ (L = ℓ+1 chain limbs), n1 baby and n2 giant steps, every
// block non-empty:
//
//	input 2L + hoist L² + babies (n1−1)·2(L+1)
//	  + giants (n2−1)·(L + L² + 2(L+1)) + output 2L
//
// — 4 + 4 + 15·6 + 15·12 + 4 = 282 for the served 256×256 at L = 2, and
// 441 at L = 3. At L = 3 the coefficient-domain composition this replaced
// spent 12 (full hoist) + 6 (input) + 15·14 (each baby brought down to
// coefficients, then transformed again) + 16·6 (an inverse pair per
// block) + 15·20 (giants) = 624, with six to eight limb fan-outs per
// rotation where this has two or three. The result is bit-identical to that composition taken in the
// same Horner order (TestMatVecBitIdentity keeps it as a test-only
// reference): every step is the same exact arithmetic mod q_i, moved
// across a linear transform. The only ciphertexts that sit in the NTT
// domain between stages are the evaluator's own matvecScratch; nothing in
// that form is returned.

// MatVecLevels is the number of modulus levels MatVecInto consumes: its
// one rescale drops the diagonal scale, so a plan at level ℓ leaves its
// result at level ℓ−MatVecLevels.
const MatVecLevels = 1

// MatVecPlan is a matrix (plus optional bias) pre-encoded for encrypted
// matrix–vector evaluation at one level of the modulus chain. Plans are
// immutable after construction and safe to share across evaluators;
// per-call scratch lives in the evaluator.
type MatVecPlan struct {
	n      int // matrix dimension
	n1, n2 int // baby / giant step counts, n1·n2 ≥ n
	level  int // input level; output is level−1
	scale  float64
	// top is the highest giant block holding a non-zero diagonal, where
	// MatVecInto's Horner chain starts; −1 for the zero matrix.
	top int
	// diags[k][i] is diag_{k·n1+i} pre-rotated right by k·n1, encoded at
	// the plan level with scale Primes[level] (so one final rescale
	// returns the input scale) and stored in the NTT + Montgomery domain:
	// the per-diagonal MAC is a fused pointwise multiply-accumulate with
	// no per-call transforms of the plaintext. Nil marks an all-zero
	// diagonal (skipped).
	diags [][]*Plaintext
	// bias is encoded at level−1 with the input scale, added after the
	// rescale; nil when no bias.
	bias *Plaintext
}

// matVecSplit fixes the BSGS shape for dimension n; both protocol
// endpoints must agree on it, so it is a pure function of n.
func matVecSplit(n int) (n1, n2 int) {
	n1 = int(math.Ceil(math.Sqrt(float64(n))))
	n2 = (n + n1 - 1) / n1
	return
}

// BSGSRotations returns the rotation set the BSGS kernel needs for
// dimension n, ascending: baby steps 1..n1−1 and, when there is more than
// one giant block, the one giant step n1 the Horner chain repeats — n1
// rotations. Clients derive the Galois keys to upload from this; the
// server derives the same set to validate them.
func BSGSRotations(n int) []int {
	n1, n2 := matVecSplit(n)
	rots := make([]int, 0, n1)
	for i := 1; i < n1; i++ {
		rots = append(rots, i)
	}
	if n2 > 1 {
		rots = append(rots, n1)
	}
	return rots
}

func (ev *Evaluator) checkMatVecShape(m [][]float64, bias []float64, level int) (int, error) {
	n := len(m)
	slots := ev.ctx.Params.Slots()
	if n == 0 || n > slots || slots%n != 0 {
		return 0, fmt.Errorf("ckks: matvec dimension %d must divide the %d slots", n, slots)
	}
	for i, row := range m {
		if len(row) != n {
			return 0, fmt.Errorf("ckks: matvec row %d has %d columns, want %d", i, len(row), n)
		}
	}
	if bias != nil && len(bias) != n {
		return 0, fmt.Errorf("ckks: bias length %d, want %d", len(bias), n)
	}
	if level < MatVecLevels || level > ev.ctx.MaxLevel() {
		return 0, fmt.Errorf("ckks: matvec level %d outside [%d, %d]", level, MatVecLevels, ev.ctx.MaxLevel())
	}
	return n, nil
}

// replicate fills a full slot vector with the length-n pattern row.
func (ev *Evaluator) replicate(row []float64) []float64 {
	slots := ev.ctx.Params.Slots()
	out := make([]float64, slots)
	for j := range out {
		out[j] = row[j%len(row)]
	}
	return out
}

// nttMontgomery moves a freshly encoded diagonal plaintext into the
// NTT + Montgomery domain in place — the storage format the matvec MAC
// loops consume. Plans are built once and reused across blocks, so the
// transforms are paid at build time, never per evaluation.
func (ev *Evaluator) nttMontgomery(pt *Plaintext) {
	tower := ev.ctx.Tower
	tower.ForEachLimb(pt.Level+1, func(i int) {
		mod := tower.Qi[i]
		mod.NTT(pt.Value[i])
		mod.MForm(pt.Value[i], pt.Value[i])
	})
}

// diagonal extracts generalized diagonal d in replicated layout, rotated
// right by shift slots: out[j] = M[(j−shift) mod n][(j−shift+d) mod n].
func diagonal(m [][]float64, d, shift, slots int) (vals []float64, zero bool) {
	n := len(m)
	vals = make([]float64, slots)
	zero = true
	for j := 0; j < slots; j++ {
		r := ((j-shift)%n + n) % n
		v := m[r][(r+d)%n]
		vals[j] = v
		if v != 0 {
			zero = false
		}
	}
	return
}

// NewMatVecPlan pre-encodes m (n×n) and bias (length n, or nil) for BSGS
// evaluation on ciphertexts at the given level and scale. The diagonals
// absorb their giant-step pre-rotations here, at build time.
func (ev *Evaluator) NewMatVecPlan(m [][]float64, bias []float64, level int, scale float64) (*MatVecPlan, error) {
	n, err := ev.checkMatVecShape(m, bias, level)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = ev.ctx.Params.Scale()
	}
	n1, n2 := matVecSplit(n)
	plan := &MatVecPlan{n: n, n1: n1, n2: n2, level: level, scale: scale, top: -1}
	enc := NewEncoder(ev.ctx)
	slots := ev.ctx.Params.Slots()
	dScale := float64(ev.ctx.Primes[level])
	plan.diags = make([][]*Plaintext, n2)
	for k := 0; k < n2; k++ {
		plan.diags[k] = make([]*Plaintext, n1)
		for i := 0; i < n1; i++ {
			d := k*n1 + i
			if d >= n {
				break
			}
			vals, zero := diagonal(m, d, k*n1, slots)
			if zero {
				continue
			}
			pt, err := enc.EncodeRealAtLevel(vals, dScale, level)
			if err != nil {
				return nil, err
			}
			ev.nttMontgomery(pt)
			plan.diags[k][i], plan.top = pt, k
		}
	}
	if bias != nil {
		pt, err := enc.EncodeRealAtLevel(ev.replicate(bias), scale, level-1)
		if err != nil {
			return nil, err
		}
		plan.bias = pt
	}
	return plan, nil
}

// Dim returns the matrix dimension n.
func (p *MatVecPlan) Dim() int { return p.n }

// Level returns the input level the plan was encoded for.
func (p *MatVecPlan) Level() int { return p.level }

// KeySwitches returns the key switches one MatVecInto call runs on this
// plan: the n1−1 baby rotations plus one giant step per block below the
// highest non-empty one, empty blocks included — n1−1 + n2−1 for a dense
// matrix, which is what a served block is priced by. It is not the key
// count: the giant steps all switch under the one key of rotation n1.
func (p *MatVecPlan) KeySwitches() int { return p.n1 - 1 + max(p.top, 0) }

// matvecScratch is the evaluator-internal working set for matvec calls:
// the hoisted decomposition, the baby-rotated inputs (each reused by
// every giant block) and two accumulator ciphertexts. Allocated on first
// use at full chain capacity, then reused. Between the stages of one
// MatVecInto call these ciphertexts hold NTT-domain limbs (plain, not
// Montgomery form: the plan's diagonals carry that factor) — the one
// place a ciphertext is in a transform domain between stages besides the
// tagged evaluation-form key of evalform.go. They never leave the
// evaluator: the call's result is inverse-transformed before the rescale
// that writes out.
type matvecScratch struct {
	h      *Hoisted
	babies []*Ciphertext
	u      *Ciphertext // inner (baby) sum of one giant block
	acc    *Ciphertext // the Horner chain over the giant blocks
}

func (ev *Evaluator) ensureMatVec(n1 int) *matvecScratch {
	if ev.mv == nil {
		top := ev.ctx.MaxLevel()
		ev.mv = &matvecScratch{
			h:   ev.NewHoisted(),
			u:   ev.ctx.NewCiphertext(top),
			acc: ev.ctx.NewCiphertext(top),
		}
	}
	for len(ev.mv.babies) < n1 {
		ev.mv.babies = append(ev.mv.babies, ev.ctx.NewCiphertext(ev.ctx.MaxLevel()))
	}
	return ev.mv
}

func (p *MatVecPlan) checkInput(ct, out *Ciphertext) error {
	if err := coeffForm(ct, out); err != nil {
		return err
	}
	if ct.Level != p.level {
		return fmt.Errorf("ckks: matvec input at level %d, plan wants %d", ct.Level, p.level)
	}
	return matchScales(ct.Scale, p.scale)
}

// addBiasInto adds the (level−1) bias plaintext into ct in place.
func (ev *Evaluator) addBiasInto(bias *Plaintext, ct *Ciphertext) error {
	if err := matchScales(ct.Scale, bias.Scale); err != nil {
		return err
	}
	for i := 0; i <= ct.Level; i++ {
		ev.ctx.Tower.Qi[i].Add(ct.C0[i], bias.Value[i], ct.C0[i])
	}
	return nil
}

// finishMatVec turns the NTT-domain sum acc (nil for a matrix with no
// non-zero diagonal) into the call's result: one inverse transform per
// limb, the rescale that drops the diagonal scale, the bias.
func (ev *Evaluator) finishMatVec(plan *MatVecPlan, ct, acc, out *Ciphertext) error {
	tower := ev.ctx.Tower
	if acc == nil {
		// Zero matrix: out is a fresh transparent zero at level−1.
		for i := 0; i < plan.level; i++ {
			for j := range out.C0[i] {
				out.C0[i][j], out.C1[i][j] = 0, 0
			}
		}
		out.Scale, out.Level = plan.scale, plan.level-1
	} else {
		tower.ForEachLimb(plan.level+1, func(t int) {
			mod := tower.Qi[t]
			mod.INTT(acc.C0[t])
			mod.INTT(acc.C1[t])
		})
		// Every diagonal is encoded at scale q_level (NewMatVecPlan).
		acc.Scale, acc.Level = ct.Scale*float64(ev.ctx.Primes[plan.level]), plan.level
		if err := ev.RescaleInto(acc, out); err != nil {
			return err
		}
	}
	if plan.bias != nil {
		return ev.addBiasInto(plan.bias, out)
	}
	return nil
}

// MatVecInto computes out = M·ct (+ bias) with the hoisted BSGS kernel:
// one hoisted decomposition feeds all baby rotations, the giant blocks
// fold in by Horner's rule with each step paying one full key switch
// under the rotation-n1 key, and a single rescale drops the diagonal
// scale, leaving out at level−1 with the input scale. The kernel stays in
// the NTT domain from the input's forward transform to the one inverse
// transform before the rescale (the file header derives its transform
// budget). gks must cover BSGSRotations(plan.Dim()); out must not alias ct.
//
// A steady-state call allocates no buffer, only the closure each of its
// limb fan-outs hands ring.ForEach: 81 objects at the served shape
// (λ-128k, 256×256, transcipher.Levels below the top), pinned by
// TestMatVecSteadyStateAllocs.
func (ev *Evaluator) MatVecInto(plan *MatVecPlan, ct *Ciphertext, gks *GaloisKeySet, out *Ciphertext) error {
	if err := plan.checkInput(ct, out); err != nil {
		return err
	}
	mv := ev.ensureMatVec(plan.n1)
	tower := ev.ctx.Tower
	level, limbs := plan.level, plan.level+1

	// Baby 0 is the input itself, transformed; its c1 rows are also the
	// diagonal of the hoisted decomposition every other baby shares.
	b0 := mv.babies[0]
	tower.ForEachLimb(limbs, func(t int) {
		mod := tower.Qi[t]
		copy(b0.C0[t], ct.C0[t])
		mod.NTT(b0.C0[t])
		copy(b0.C1[t], ct.C1[t])
		mod.NTT(b0.C1[t])
	})
	ev.hoistDigits(mv.h, ct, b0.C1)
	for i := 1; i < plan.n1; i++ {
		if err := ev.rotateHoistedNTT(mv.h, b0.C0, i, gks, mv.babies[i]); err != nil {
			return err
		}
	}

	if plan.top < 0 {
		return ev.finishMatVec(plan, ct, nil, out) // the zero matrix
	}
	// Horner's rule over the giant blocks: the chain starts as the top
	// block's inner sum, and each step below rotates it by n1 in place and
	// adds that block's sum û (zero for an empty block).
	acc, u := mv.acc, mv.u
	top := plan.diags[plan.top]
	tower.ForEachLimb(limbs, func(t int) { ev.blockSumLimb(t, top, mv.babies, acc) })
	if plan.top > 0 {
		gk, err := ev.galoisKey(plan.n1, gks, plan.level)
		if err != nil {
			return err
		}
		tab := ev.gatherTable(gk)
		for k := plan.top - 1; k >= 0; k-- {
			row := plan.diags[k]
			tower.ForEachLimb(limbs, func(t int) {
				// The giant step's key-switch input σ(acc1), in both domains.
				ring.ApplyAutomorphismNTT(acc.C1[t], tab, ev.s5[t])
				copy(ev.s6[t], ev.s5[t])
				tower.Qi[t].INTT(ev.s6[t])
				ev.blockSumLimb(t, row, mv.babies, u)
			})
			ev.keySwitch(ev.s6, ev.s5, gk.Parts, level)
			tower.ForEachLimb(limbs, func(t int) {
				mod := tower.Qi[t]
				ev.switchedLimbNTT(t, level, acc.C0[t], tab, acc.C0[t], acc.C1[t])
				mod.Add(acc.C0[t], u.C0[t], acc.C0[t])
				mod.Add(acc.C1[t], u.C1[t], acc.C1[t])
			})
		}
	}
	return ev.finishMatVec(plan, ct, acc, out)
}

// blockSumLimb writes limb t of a giant block's inner sum into u: a pair
// of lazy inner products of the NTT-domain baby rotations against the
// block's non-empty diagonals, zero for an empty block. Runs inside a
// per-limb fan-out; s1..s4 of limb t are its scratch.
func (ev *Evaluator) blockSumLimb(t int, row []*Plaintext, babies []*Ciphertext, u *Ciphertext) {
	mod := ev.ctx.Tower.Qi[t]
	sum0 := mod.LazySum(ev.s1[t], ev.s2[t], u.C0[t])
	sum1 := mod.LazySum(ev.s3[t], ev.s4[t], u.C1[t])
	for i, pt := range row {
		if pt != nil {
			sum0.MulAdd(babies[i].C0[t], pt.Value[t])
			sum1.MulAdd(babies[i].C1[t], pt.Value[t])
		}
	}
	sum0.Reduce()
	sum1.Reduce()
}
