package ckks

import (
	"fmt"
	"math/rand"
	"testing"

	"quhe/internal/he/ring"
)

// The reference below is the rotation and matvec composition as it stood
// before the lazy inner products and the NTT-domain BSGS, kept test-only
// as the oracle the kernels must match limb for limb: every multiply-
// accumulate term pays a strict ring.MRed and a ring.AddMod, every key
// switch leaves the NTT domain through the coefficient-domain
// ring.Tower.ModDownInto, and every stage hands the next one coefficient
// form. It allocates freely and shares no scratch with the evaluator.
type strictRef struct {
	ctx *Context
}

// mac is the per-term primitive: out[i] += a[idx(i)]·bMont[i]·2⁻⁶⁴ mod q,
// with tab nil for the identity gather.
func (r strictRef) mac(mod *ring.Modulus, a ring.Poly, tab []uint32, bMont, out ring.Poly) {
	q, qInv := mod.Q, ring.MRedConstant(mod.Q)
	for i := range out {
		v := a[i]
		if tab != nil {
			v = a[tab[i]]
		}
		out[i] = ring.AddMod(out[i], ring.MRed(v, bMont[i], q, qInv), q)
	}
}

// qp returns extended-basis limb t at the given level: chain limbs
// 0..level, then the special limb; partIdx is its index inside key parts.
func (r strictRef) qp(t, level int) (mod *ring.Modulus, partIdx int) {
	if t <= level {
		return r.ctx.Tower.Qi[t], t
	}
	return r.ctx.Tower.P, r.ctx.Tower.Limbs()
}

// digit lifts RNS digit j of d (coefficient domain) to extended-basis limb
// t and transforms it.
func (r strictRef) digit(d ring.RNSPoly, j, t, level int) ring.Poly {
	mod, partIdx := r.qp(t, level)
	dig := make(ring.Poly, len(d[j]))
	if partIdx == j {
		copy(dig, d[j])
	} else {
		mod.ReduceInto(d[j], dig)
	}
	mod.NTT(dig)
	return dig
}

// down returns the extended-basis NTT-domain accumulators to the
// coefficient domain and divides by P.
func (r strictRef) down(acc [2]ring.RNSPoly, level int) [2]ring.RNSPoly {
	limbs := level + 1
	for c := range acc {
		for t := 0; t <= limbs; t++ {
			mod, _ := r.qp(t, level)
			mod.INTT(acc[c][t])
		}
		r.ctx.Tower.ModDownInto(acc[c][:limbs], acc[c][limbs], acc[c][:limbs])
		acc[c] = acc[c][:limbs]
	}
	return acc
}

func (r strictRef) newAcc(level int) [2]ring.RNSPoly {
	return [2]ring.RNSPoly{r.ctx.Tower.NewPoly(level + 2), r.ctx.Tower.NewPoly(level + 2)}
}

// finishRotation assembles (σ(c0) + acc0, acc1) from switched accumulators.
func (r strictRef) finishRotation(ct *Ciphertext, el uint64, acc [2]ring.RNSPoly) *Ciphertext {
	out := r.ctx.NewCiphertext(ct.Level)
	for i := 0; i <= ct.Level; i++ {
		mod := r.ctx.Tower.Qi[i]
		mod.AutomorphismCoeffs(ct.C0[i], el, out.C0[i])
		mod.Add(out.C0[i], acc[0][i], out.C0[i])
		copy(out.C1[i], acc[1][i])
	}
	out.Scale = ct.Scale
	return out
}

// rotate is the pre-change RotateInto: coefficient-domain σ, one full
// decompose-and-switch of σ(c1).
func (r strictRef) rotate(t *testing.T, ct *Ciphertext, rot int, gks *GaloisKeySet) *Ciphertext {
	t.Helper()
	n := r.ctx.Params.N()
	el := ring.GaloisElement(rot, n)
	if el == 1 {
		return ct.Copy()
	}
	gk := gks.Key(el)
	if gk == nil {
		t.Fatalf("reference: no key for rotation %d", rot)
	}
	level := ct.Level
	sc1 := r.ctx.Tower.NewPoly(level + 1)
	for i := range sc1 {
		r.ctx.Tower.Qi[i].AutomorphismCoeffs(ct.C1[i], el, sc1[i])
	}
	acc := r.newAcc(level)
	for tt := 0; tt <= level+1; tt++ {
		mod, partIdx := r.qp(tt, level)
		for j := 0; j <= level; j++ {
			dig := r.digit(sc1, j, tt, level)
			r.mac(mod, dig, nil, gk.Parts[j][0][partIdx], acc[0][tt])
			r.mac(mod, dig, nil, gk.Parts[j][1][partIdx], acc[1][tt])
		}
	}
	return r.finishRotation(ct, el, r.down(acc, level))
}

// hoist is the pre-change HoistInto: dig[j][t] for every digit and every
// extended-basis limb.
func (r strictRef) hoist(ct *Ciphertext) []ring.RNSPoly {
	dig := make([]ring.RNSPoly, ct.Level+1)
	for j := range dig {
		dig[j] = make(ring.RNSPoly, ct.Level+2)
		for tt := range dig[j] {
			dig[j][tt] = r.digit(ct.C1, j, tt, ct.Level)
		}
	}
	return dig
}

// rotateHoisted is the pre-change RotateHoistedInto: the σ gather fused
// into a per-term strict MAC over the hoisted digits.
func (r strictRef) rotateHoisted(t *testing.T, ct *Ciphertext, dig []ring.RNSPoly, rot int, gks *GaloisKeySet) *Ciphertext {
	t.Helper()
	n := r.ctx.Params.N()
	el := ring.GaloisElement(rot, n)
	if el == 1 {
		return ct.Copy()
	}
	gk := gks.Key(el)
	if gk == nil {
		t.Fatalf("reference: no key for rotation %d", rot)
	}
	tab := ring.AutomorphismNTTTable(el, n)
	level := ct.Level
	acc := r.newAcc(level)
	for tt := 0; tt <= level+1; tt++ {
		mod, partIdx := r.qp(tt, level)
		for j := 0; j <= level; j++ {
			r.mac(mod, dig[j][tt], tab, gk.Parts[j][0][partIdx], acc[0][tt])
			r.mac(mod, dig[j][tt], tab, gk.Parts[j][1][partIdx], acc[1][tt])
		}
	}
	return r.finishRotation(ct, el, r.down(acc, level))
}

func (r strictRef) ntt(ct *Ciphertext) {
	for i := 0; i <= ct.Level; i++ {
		r.ctx.Tower.Qi[i].NTT(ct.C0[i])
		r.ctx.Tower.Qi[i].NTT(ct.C1[i])
	}
}

func (r strictRef) intt(ct *Ciphertext) {
	for i := 0; i <= ct.Level; i++ {
		r.ctx.Tower.Qi[i].INTT(ct.C0[i])
		r.ctx.Tower.Qi[i].INTT(ct.C1[i])
	}
}

// matVec is MatVecInto composed the pre-change way, in its Horner order:
// hoisted baby rotations brought to coefficient form and transformed
// again, per-term strict diagonal MACs, an inverse transform per giant
// block, then the chain from the highest non-empty block down — a
// coefficient-domain RotateInto by n1 per step, the block below added in
// the coefficient domain — and one rescale.
func (r strictRef) matVec(t *testing.T, plan *MatVecPlan, ct *Ciphertext, gks *GaloisKeySet) *Ciphertext {
	t.Helper()
	tower := r.ctx.Tower
	level := plan.level
	dig := r.hoist(ct)
	babies := make([]*Ciphertext, plan.n1)
	for i := range babies {
		babies[i] = r.rotateHoisted(t, ct, dig, i, gks)
		r.ntt(babies[i])
	}
	blocks := make([]*Ciphertext, plan.n2) // nil for an empty block
	top := -1
	for k := range blocks {
		var u *Ciphertext
		for i, pt := range plan.diags[k] {
			if pt == nil {
				continue
			}
			if u == nil {
				u = r.ctx.NewCiphertext(level)
				u.Scale = ct.Scale * pt.Scale
			}
			for l := 0; l <= level; l++ {
				r.mac(tower.Qi[l], babies[i].C0[l], nil, pt.Value[l], u.C0[l])
				r.mac(tower.Qi[l], babies[i].C1[l], nil, pt.Value[l], u.C1[l])
			}
		}
		if u != nil {
			r.intt(u)
			blocks[k], top = u, k
		}
	}
	var acc *Ciphertext
	if top >= 0 {
		acc = blocks[top]
		for k := top - 1; k >= 0; k-- {
			acc = r.rotate(t, acc, plan.n1, gks)
			if u := blocks[k]; u != nil {
				for l := 0; l <= level; l++ {
					tower.Qi[l].Add(acc.C0[l], u.C0[l], acc.C0[l])
					tower.Qi[l].Add(acc.C1[l], u.C1[l], acc.C1[l])
				}
			}
		}
	}
	out := r.ctx.NewCiphertext(level - 1)
	out.Scale = plan.scale
	if acc != nil {
		tower.RescaleInto(acc.C0, out.C0)
		tower.RescaleInto(acc.C1, out.C1)
		out.Scale = acc.Scale / float64(r.ctx.Primes[level])
	}
	if plan.bias != nil {
		for l := 0; l <= out.Level; l++ {
			tower.Qi[l].Add(out.C0[l], plan.bias.Value[l], out.C0[l])
		}
	}
	return out
}

func sameCiphertext(t *testing.T, what string, got, want *Ciphertext) {
	t.Helper()
	if got.Level != want.Level || got.Scale != want.Scale || got.IsEvalForm() != want.IsEvalForm() {
		t.Fatalf("%s: level/scale/form %d/%g/%v, want %d/%g/%v", what,
			got.Level, got.Scale, got.IsEvalForm(), want.Level, want.Scale, want.IsEvalForm())
	}
	for c, pair := range [2][2]ring.RNSPoly{{got.C0, want.C0}, {got.C1, want.C1}} {
		for l := 0; l <= want.Level; l++ {
			for j, w := range pair[1][l] {
				if pair[0][l][j] != w {
					t.Fatalf("%s: c%d limb %d coefficient %d = %d, want %d", what, c, l, j, pair[0][l][j], w)
				}
			}
		}
	}
}

// The served chain (profile.Default): the transcipher's keystream layers
// leave a block transcipherLevels below the top (transcipher.Levels,
// spelled out because package transcipher imports ckks), and the matvec
// kernel takes it MatVecLevels further, to level 0.
// TestServedFixturesMatchProfiles holds both to the registry.
const (
	transcipherLevels = 2
	servedDepth       = transcipherLevels + MatVecLevels
)

// servedParams is the parameter set of the registered security profile at
// ring degree 2^logN: one 60-bit base prime, servedDepth 50-bit scale
// primes, the 61-bit special prime.
func servedParams(tb testing.TB, logN int) Params {
	tb.Helper()
	p, err := NewParams(logN, 60, 50, servedDepth)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// servedProfiles are the three registered security profiles (LogN 10–12
// on servedParams). Spelled out here because package profile imports
// ckks.
var servedProfiles = []struct {
	id   string
	logN int
	dim  int // matvec dimension under test; λ-128k runs the served 256×256
}{{"lambda-32k", 10, 16}, {"lambda-64k", 11, 64}, {"lambda-128k", 12, 256}}

type bitIdentityFixture struct {
	ctx *Context
	kg  *KeyGenerator
	sk  *SecretKey
	pk  *PublicKey
	ev  *Evaluator
	rng *rand.Rand
}

func newBitIdentityFixture(t *testing.T, logN int) *bitIdentityFixture {
	t.Helper()
	ctx, err := NewContext(servedParams(t, logN))
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, int64(100+logN))
	sk := kg.GenSecretKey()
	return &bitIdentityFixture{
		ctx: ctx, kg: kg, sk: sk, pk: kg.GenPublicKey(sk),
		ev: NewEvaluator(ctx, int64(200+logN)), rng: rand.New(rand.NewSource(int64(300 + logN))),
	}
}

func (fx *bitIdentityFixture) encrypt(t *testing.T, n, level int) *Ciphertext {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = fx.rng.Float64()*2 - 1
	}
	return encryptReplicated(t, fx.ev, fx.pk, v, level)
}

// TestMatVecBitIdentity pins MatVecInto to the strict per-term,
// coefficient-domain composition it replaced, taken in the same Horner
// order, limb for limb, on every served profile at the served level
// (transcipherLevels below the top, where the transcipher leaves a
// block), for a dense matrix with bias, one without, a sparse one (nil
// diagonals inside blocks, giant blocks empty below and above the top
// one), one whose unrotated block is empty and the zero matrix — twice
// through one evaluator, so the second pass reads the scratch the first
// left behind. Each case's plan reports the key switches the chain runs: n1−1 baby
// rotations plus one giant step per block below the top non-empty one.
func TestMatVecBitIdentity(t *testing.T) {
	for _, prof := range servedProfiles {
		fx := newBitIdentityFixture(t, prof.logN)
		ref := strictRef{fx.ctx}
		level := fx.ctx.MaxLevel() - transcipherLevels
		n := prof.dim
		n1, n2 := matVecSplit(n)
		dense, bias := randomMatrix(fx.rng, n)
		// Sparse keeps diagonals 0, 2, 3 (block 0), one of block 1 and two
		// of block 3: every other block is empty, these have holes. Late
		// drops block 0 too, so a rotated block is the sum's first term.
		sparse, late := make([][]float64, n), make([][]float64, n)
		for i := range sparse {
			sparse[i], late[i] = make([]float64, n), make([]float64, n)
			for j := range sparse[i] {
				switch (j - i + n) % n {
				case 0, 2, 3:
					sparse[i][j] = dense[i][j]
				case n1 + 1, 3*n1 + 1, 3*n1 + 3:
					sparse[i][j], late[i][j] = dense[i][j], dense[i][j]
				}
			}
		}
		zero := make([][]float64, n)
		for i := range zero {
			zero[i] = make([]float64, n)
		}
		gks := fx.kg.GenGaloisKeys(fx.sk, BSGSRotations(n))
		ct := fx.encrypt(t, n, level)
		cases := []struct {
			name string
			m    [][]float64
			bias []float64
			top  int // highest non-empty giant block
		}{{"dense+bias", dense, bias, n2 - 1}, {"dense", dense, nil, n2 - 1}, {"sparse", sparse, bias, 3}, {"late", late, nil, 3}, {"zero", zero, bias, 0}}
		for _, tc := range cases {
			plan, err := fx.ev.NewMatVecPlan(tc.m, tc.bias, level, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.KeySwitches(), n1-1+tc.top; got != want {
				t.Errorf("%s %s: %d key switches, want %d", prof.id, tc.name, got, want)
			}
			if tc.name == "sparse" && (plan.diags[0][1] != nil || plan.diags[2][0] != nil || plan.diags[3][1] == nil) {
				t.Fatal("sparse case does not have the holes it claims")
			}
			want := ref.matVec(t, plan, ct, gks)
			for pass := 0; pass < 2; pass++ {
				got := fx.ctx.NewCiphertext(level - MatVecLevels)
				if err := fx.ev.MatVecInto(plan, ct, gks, got); err != nil {
					t.Fatal(err)
				}
				sameCiphertext(t, fmt.Sprintf("%s %s pass %d", prof.id, tc.name, pass), got, want)
			}
		}
	}
}

// TestRotateBitIdentity gives RotateInto and RotateHoistedInto the same
// treatment against their pre-change bodies, at the top level and the
// served one, including the identity rotation and an aliased output.
func TestRotateBitIdentity(t *testing.T) {
	for _, prof := range servedProfiles {
		fx := newBitIdentityFixture(t, prof.logN)
		ref := strictRef{fx.ctx}
		rots := []int{0, 1, 5, -3, fx.ctx.Params.Slots() / 2}
		gks := fx.kg.GenGaloisKeys(fx.sk, rots)
		h := fx.ev.NewHoisted()
		for _, level := range []int{fx.ctx.MaxLevel(), fx.ctx.MaxLevel() - transcipherLevels} {
			ct := fx.encrypt(t, fx.ctx.Params.Slots(), level)
			dig := ref.hoist(ct)
			for pass := 0; pass < 2; pass++ {
				fx.ev.HoistInto(h, ct)
				for _, rot := range rots {
					what := fmt.Sprintf("%s level %d rot %d pass %d", prof.id, level, rot, pass)
					got := fx.ctx.NewCiphertext(level)
					if err := fx.ev.RotateInto(ct, rot, gks, got); err != nil {
						t.Fatal(err)
					}
					wantRot := ref.rotate(t, ct, rot, gks)
					sameCiphertext(t, what+": RotateInto", got, wantRot)
					aliased := ct.Copy()
					if err := fx.ev.RotateInto(aliased, rot, gks, aliased); err != nil {
						t.Fatal(err)
					}
					sameCiphertext(t, what+": RotateInto in place", aliased, wantRot)
					if err := fx.ev.RotateHoistedInto(h, rot, gks, got); err != nil {
						t.Fatal(err)
					}
					sameCiphertext(t, what+": RotateHoistedInto", got, ref.rotateHoisted(t, ct, dig, rot, gks))
				}
			}
		}
	}
}

// TestMulRelinSquareBitIdentity holds the squaring path of MulRelinInto
// (a == b: two operand transforms per limb, tensor (â0², 2·â0·â1, â1²)) to
// the general product of a with a copy of itself, limb for limb, on every
// served profile at every level that can still be rescaled, into a
// separate output and in place.
func TestMulRelinSquareBitIdentity(t *testing.T) {
	for _, prof := range servedProfiles {
		fx := newBitIdentityFixture(t, prof.logN)
		rlk := fx.kg.GenRelinKey(fx.sk)
		for level := fx.ctx.MaxLevel(); level >= 1; level-- {
			what := fmt.Sprintf("%s level %d", prof.id, level)
			a := fx.encrypt(t, fx.ctx.Params.Slots(), level)
			want := fx.ctx.NewCiphertext(level)
			if err := fx.ev.MulRelinInto(a, a.Copy(), rlk, want); err != nil {
				t.Fatal(err)
			}
			got := fx.ctx.NewCiphertext(level)
			if err := fx.ev.MulRelinInto(a, a, rlk, got); err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, what+": square", got, want)
			if err := fx.ev.MulRelinInto(a, a, rlk, a); err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, what+": square in place", a, want)
		}
	}
}
