package ckks

import (
	"fmt"
	"math"
)

// Packed encrypted linear algebra: the diagonal method with baby-step/
// giant-step rotation structure (Halevi–Shoup). An n×n matrix times a
// packed vector decomposes over the n generalized diagonals,
//
//	Mv = Σ_d diag_d ⊙ rot_d(v),
//
// and splitting d = k·n1 + i with n1 ≈ √n regroups the sum as
//
//	Mv = Σ_k rot_{k·n1}( Σ_i rot_{−k·n1}(diag_{k·n1+i}) ⊙ rot_i(v) ),
//
// so only n1−1 baby rotations of v plus n2−1 giant rotations of the inner
// sums are needed — O(√n) key switches instead of O(n). The baby
// rotations all act on the same input, so the evaluator hoists them: one
// O(L²) decomposition of v shared by every baby step. The pre-rotations
// of the diagonals are free — they fold into the plaintext encoding at
// plan-build time.
//
// Packing contract: n must divide the slot count and the input vector
// must be replicated slots/n times (slot j holds v[j mod n]), so every
// cyclic slot rotation by d < n acts as rotation mod n on each copy. The
// result comes back in the same replicated layout.

// MatVecPlan is a matrix (plus optional bias) pre-encoded for encrypted
// matrix–vector evaluation at one level of the modulus chain. Plans are
// immutable after construction and safe to share across evaluators;
// per-call scratch lives in the evaluator.
type MatVecPlan struct {
	n      int // matrix dimension
	n1, n2 int // baby / giant step counts, n1·n2 ≥ n
	level  int // input level; output is level−1
	scale  float64
	// diags[k][i] is diag_{k·n1+i} pre-rotated right by k·n1, encoded at
	// the plan level with scale Primes[level] (so one final rescale
	// returns the input scale) and stored in the NTT + Montgomery domain:
	// the per-diagonal MAC is a fused pointwise multiply-accumulate with
	// no per-call transforms of the plaintext. Nil marks an all-zero
	// diagonal (skipped).
	diags [][]*Plaintext
	// naive[d] is diag_d unrotated, for the rotate-per-diagonal baseline
	// (same NTT + Montgomery storage); built only by NewMatVecNaivePlan.
	naive []*Plaintext
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
// dimension n, ascending: baby steps 1..n1−1 and giant steps k·n1 for
// k = 1..n2−1. Clients derive the Galois keys to upload from this; the
// server derives the same set to validate them.
func BSGSRotations(n int) []int {
	n1, n2 := matVecSplit(n)
	rots := make([]int, 0, n1+n2-2)
	for i := 1; i < n1; i++ {
		rots = append(rots, i)
	}
	for k := 1; k < n2; k++ {
		rots = append(rots, k*n1)
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
	if level < 1 || level > ev.ctx.MaxLevel() {
		return 0, fmt.Errorf("ckks: matvec level %d outside [1, %d]", level, ev.ctx.MaxLevel())
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

// encodeMatVecCommon encodes the bias and returns the diagonal scale.
func (ev *Evaluator) encodeMatVecCommon(plan *MatVecPlan, bias []float64) error {
	if bias == nil {
		return nil
	}
	enc := NewEncoder(ev.ctx)
	pt, err := enc.EncodeRealAtLevel(ev.replicate(bias), plan.scale, plan.level-1)
	if err != nil {
		return err
	}
	plan.bias = pt
	return nil
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
	plan := &MatVecPlan{n: n, n1: n1, n2: n2, level: level, scale: scale}
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
			plan.diags[k][i] = pt
		}
	}
	if err := ev.encodeMatVecCommon(plan, bias); err != nil {
		return nil, err
	}
	return plan, nil
}

// NewMatVecNaivePlan pre-encodes the unrotated diagonals for the naive
// rotate-per-diagonal evaluation — the benchmark baseline. Encoding cost
// is identical to the BSGS plan so timing differences isolate rotations.
func (ev *Evaluator) NewMatVecNaivePlan(m [][]float64, bias []float64, level int, scale float64) (*MatVecPlan, error) {
	n, err := ev.checkMatVecShape(m, bias, level)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = ev.ctx.Params.Scale()
	}
	n1, n2 := matVecSplit(n)
	plan := &MatVecPlan{n: n, n1: n1, n2: n2, level: level, scale: scale}
	enc := NewEncoder(ev.ctx)
	slots := ev.ctx.Params.Slots()
	dScale := float64(ev.ctx.Primes[level])
	plan.naive = make([]*Plaintext, n)
	for d := 0; d < n; d++ {
		vals, zero := diagonal(m, d, 0, slots)
		if zero {
			continue
		}
		pt, err := enc.EncodeRealAtLevel(vals, dScale, level)
		if err != nil {
			return nil, err
		}
		ev.nttMontgomery(pt)
		plan.naive[d] = pt
	}
	if err := ev.encodeMatVecCommon(plan, bias); err != nil {
		return nil, err
	}
	return plan, nil
}

// Dim returns the matrix dimension n.
func (p *MatVecPlan) Dim() int { return p.n }

// Level returns the input level the plan was encoded for.
func (p *MatVecPlan) Level() int { return p.level }

// Rotations returns the rotation set MatVecInto needs; callers must
// supply a GaloisKeySet covering it. The naive path additionally needs
// every rotation 1..n−1.
func (p *MatVecPlan) Rotations() []int { return BSGSRotations(p.n) }

// matvecScratch is the evaluator-internal working set for matvec calls:
// the hoisted decomposition, the baby-rotated inputs (each reused by all
// n2 giant steps) and three accumulator ciphertexts. Allocated on first
// use at full chain capacity, then reused — steady-state matvec calls
// allocate nothing.
type matvecScratch struct {
	h      *Hoisted
	babies []*Ciphertext
	u      *Ciphertext // inner (baby) accumulator
	tmp    *Ciphertext // per-diagonal product
	acc    *Ciphertext // outer (giant) accumulator
}

func (ev *Evaluator) ensureMatVec(n1 int) *matvecScratch {
	if ev.mv == nil {
		top := ev.ctx.MaxLevel()
		ev.mv = &matvecScratch{
			h:   ev.NewHoisted(),
			u:   ev.ctx.NewCiphertext(top),
			tmp: ev.ctx.NewCiphertext(top),
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

// MatVecInto computes out = M·ct (+ bias) with the hoisted BSGS kernel:
// one hoisted decomposition feeds all baby rotations, each giant step
// pays one full key switch, and a single rescale drops the diagonal
// scale, leaving out at level−1 with the input scale. The inner sums run
// entirely in the NTT domain — each baby is forward-transformed once and
// MAC'd against the plan's pre-transformed diagonals with no per-product
// round trips, so the per-term cost is a fused pointwise
// multiply-accumulate. gks must cover plan.Rotations(). out must not
// alias ct; steady-state calls allocate nothing beyond the first call's
// scratch.
func (ev *Evaluator) MatVecInto(plan *MatVecPlan, ct *Ciphertext, gks *GaloisKeySet, out *Ciphertext) error {
	if plan.diags == nil {
		return fmt.Errorf("ckks: plan built for naive evaluation")
	}
	if err := plan.checkInput(ct, out); err != nil {
		return err
	}
	mv := ev.ensureMatVec(plan.n1)
	tower := ev.ctx.Tower
	limbs := plan.level + 1

	// Baby steps v_i = rot_i(v) off one shared hoisting, each forward-
	// transformed in place (the babies are evaluator scratch).
	ev.HoistInto(mv.h, ct)
	for i := 0; i < plan.n1; i++ {
		b := mv.babies[i]
		if i == 0 {
			for t := 0; t < limbs; t++ {
				copy(b.C0[t], ct.C0[t])
				copy(b.C1[t], ct.C1[t])
			}
			b.Scale, b.Level = ct.Scale, ct.Level
		} else if err := ev.RotateHoistedInto(mv.h, i, gks, b); err != nil {
			return err
		}
		tower.ForEachLimb(limbs, func(t int) {
			mod := tower.Qi[t]
			mod.NTT(b.C0[t])
			mod.NTT(b.C1[t])
		})
	}

	accEmpty := true
	for k := 0; k < plan.n2; k++ {
		row := plan.diags[k]
		var ptScale float64
		for _, pt := range row {
			if pt != nil {
				ptScale = pt.Scale
				break
			}
		}
		if ptScale == 0 {
			continue
		}
		// One fused fan-out per giant step: NTT-domain MACs over the
		// block's non-empty diagonals, then the inverse transforms.
		u := mv.u
		tower.ForEachLimb(limbs, func(t int) {
			mod := tower.Qi[t]
			first := true
			for i, pt := range row {
				if pt == nil {
					continue
				}
				b := mv.babies[i]
				if first {
					mod.MulCoeffwiseMontgomery(b.C0[t], pt.Value[t], u.C0[t])
					mod.MulCoeffwiseMontgomery(b.C1[t], pt.Value[t], u.C1[t])
					first = false
				} else {
					mod.MulCoeffwiseMontgomeryThenAdd(b.C0[t], pt.Value[t], u.C0[t])
					mod.MulCoeffwiseMontgomeryThenAdd(b.C1[t], pt.Value[t], u.C1[t])
				}
			}
			mod.INTT(u.C0[t])
			mod.INTT(u.C1[t])
		})
		u.Scale, u.Level = ct.Scale*ptScale, plan.level
		// Giant step: one full key switch per non-empty block.
		if k > 0 {
			if err := ev.RotateInto(u, k*plan.n1, gks, u); err != nil {
				return err
			}
		}
		if accEmpty {
			mv.acc, mv.u = u, mv.acc
			accEmpty = false
		} else if err := ev.AddInto(mv.acc, u, mv.acc); err != nil {
			return err
		}
	}
	if accEmpty {
		// Zero matrix: out is a fresh transparent zero at level−1.
		if err := ev.DropLevelInto(ct, plan.level-1, out); err != nil {
			return err
		}
		for i := 0; i <= out.Level; i++ {
			for j := range out.C0[i] {
				out.C0[i][j], out.C1[i][j] = 0, 0
			}
		}
		out.Scale = plan.scale
	} else if err := ev.RescaleInto(mv.acc, out); err != nil {
		return err
	}
	if plan.bias != nil {
		return ev.addBiasInto(plan.bias, out)
	}
	return nil
}

// MatVecNaiveInto is the rotate-per-diagonal baseline: n−1 full key
// switches, no hoisting, no BSGS regrouping. The MAC treatment matches
// MatVecInto's (NTT-domain accumulate against pre-transformed diagonals)
// so the benchmarked gap isolates rotation work. Kept for benchmarking
// the kernel speedup; gks must cover rotations 1..n−1.
func (ev *Evaluator) MatVecNaiveInto(plan *MatVecPlan, ct *Ciphertext, gks *GaloisKeySet, out *Ciphertext) error {
	if plan.naive == nil {
		return fmt.Errorf("ckks: plan built for BSGS evaluation")
	}
	if err := plan.checkInput(ct, out); err != nil {
		return err
	}
	mv := ev.ensureMatVec(1)
	tower := ev.ctx.Tower
	limbs := plan.level + 1
	rot := mv.babies[0]
	acc := mv.acc
	accEmpty := true
	var ptScale float64
	for d := 0; d < plan.n; d++ {
		pt := plan.naive[d]
		if pt == nil {
			continue
		}
		ptScale = pt.Scale
		if d == 0 {
			for t := 0; t < limbs; t++ {
				copy(rot.C0[t], ct.C0[t])
				copy(rot.C1[t], ct.C1[t])
			}
		} else if err := ev.RotateInto(ct, d, gks, rot); err != nil {
			return err
		}
		first := accEmpty
		tower.ForEachLimb(limbs, func(t int) {
			mod := tower.Qi[t]
			mod.NTT(rot.C0[t])
			mod.NTT(rot.C1[t])
			if first {
				mod.MulCoeffwiseMontgomery(rot.C0[t], pt.Value[t], acc.C0[t])
				mod.MulCoeffwiseMontgomery(rot.C1[t], pt.Value[t], acc.C1[t])
			} else {
				mod.MulCoeffwiseMontgomeryThenAdd(rot.C0[t], pt.Value[t], acc.C0[t])
				mod.MulCoeffwiseMontgomeryThenAdd(rot.C1[t], pt.Value[t], acc.C1[t])
			}
		})
		accEmpty = false
	}
	if accEmpty {
		if err := ev.DropLevelInto(ct, plan.level-1, out); err != nil {
			return err
		}
		for i := 0; i <= out.Level; i++ {
			for j := range out.C0[i] {
				out.C0[i][j], out.C1[i][j] = 0, 0
			}
		}
		out.Scale = plan.scale
	} else {
		tower.ForEachLimb(limbs, func(t int) {
			mod := tower.Qi[t]
			mod.INTT(acc.C0[t])
			mod.INTT(acc.C1[t])
		})
		acc.Scale, acc.Level = ct.Scale*ptScale, plan.level
		if err := ev.RescaleInto(acc, out); err != nil {
			return err
		}
	}
	if plan.bias != nil {
		return ev.addBiasInto(plan.bias, out)
	}
	return nil
}
