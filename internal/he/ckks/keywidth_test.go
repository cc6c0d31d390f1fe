package ckks

import (
	"errors"
	"fmt"
	"testing"

	"quhe/internal/he/ring"
)

// keyGenAt returns a generator whose relinearization and Galois keys are
// built for level: the one generator, over the context narrowed the way a
// profile narrows it.
func keyGenAt(t testing.TB, ctx *Context, level int, seed int64) *KeyGenerator {
	t.Helper()
	at, err := ctx.WithKeyLevels(level, level)
	if err != nil {
		t.Fatal(err)
	}
	return NewKeyGenerator(at, seed)
}

// narrowKey keeps the cells of a wider key that a switch at level reads —
// digits 0..level, chain limbs 0..level and the special limb — in a key
// of level's width.
func narrowKey(ctx *Context, k *SwitchingKey, level int) SwitchingKey {
	parts := make([][2]ring.RNSPoly, level+1)
	for j := range parts {
		for c, comp := range k.Parts[j] {
			parts[j][c] = append(append(ring.RNSPoly{}, comp[:level+1]...), comp[len(comp)-1])
		}
	}
	return SwitchingKey{QP: ctx.qp[level], Seed: k.Seed, Parts: parts}
}

// narrowKeys applies narrowKey to every key of a set.
func narrowKeys(ctx *Context, set *GaloisKeySet, level int) *GaloisKeySet {
	out := &GaloisKeySet{Keys: make(map[uint64]*GaloisKey, len(set.Keys))}
	for el, gk := range set.Keys {
		out.Keys[el] = &GaloisKey{Rot: gk.Rot, El: gk.El, SwitchingKey: narrowKey(ctx, &gk.SwitchingKey, level)}
	}
	return out
}

// TestKeyWidth: on every served profile, a relinearization or Galois key
// built for level l spans exactly l+1 digits × l+2 QP limbs over the
// level's basis — 12 cells per component for the relinearization key at
// the squaring level top−1, 6 for a Galois key at the matvec level
// top−2 — passes CheckSwitchingKey at l, and is ErrKeyShape one level
// above or below it.
func TestKeyWidth(t *testing.T) {
	for _, prof := range servedProfiles {
		ctx, err := NewContext(servedParams(t, prof.logN))
		if err != nil {
			t.Fatal(err)
		}
		sk := NewKeyGenerator(ctx, 3).GenSecretKey()
		top := ctx.MaxLevel()
		for level := 0; level <= top; level++ {
			kg := keyGenAt(t, ctx, level, int64(level+5))
			gk := kg.GenGaloisKey(sk, 1)
			for kind, k := range map[string]*SwitchingKey{"relinearization": kg.GenRelinKey(sk), "galois": &gk.SwitchingKey} {
				what := fmt.Sprintf("%s %s key for level %d", prof.id, kind, level)
				if k.Level() != level || len(k.Parts) != level+1 || len(k.QP) != level+2 {
					t.Fatalf("%s: level %d, %d digits over %d moduli, want %d digits over %d",
						what, k.Level(), len(k.Parts), len(k.QP), level+1, level+2)
				}
				cells := 0
				for _, part := range k.Parts {
					for _, comp := range part {
						if len(comp) != level+2 {
							t.Fatalf("%s: a component spans %d limbs, want %d", what, len(comp), level+2)
						}
					}
					cells += len(part[0])
				}
				if want := (level + 1) * (level + 2); cells != want {
					t.Errorf("%s: %d cells per component, want %d", what, cells, want)
				}
				if served := map[int]int{top - 1: 12, top - transcipherLevels: 6}[level]; served != 0 && cells != served {
					t.Errorf("%s: %d cells per component, the served width is %d", what, cells, served)
				}
				if err := ctx.CheckSwitchingKey(k, level); err != nil {
					t.Errorf("%s refused at its level: %v", what, err)
				}
				for _, other := range []int{level - 1, level + 1} {
					if other < 0 || other > top {
						continue
					}
					if err := ctx.CheckSwitchingKey(k, other); !errors.Is(err, ErrKeyShape) {
						t.Errorf("%s checked at level %d: err = %v, want ErrKeyShape", what, other, err)
					}
				}
			}
		}
	}
}

// TestNarrowKeySwitchBitIdentity: on every served profile, switching at a
// key's use level through the key cut to that level's width is
// bit-identical to switching through the full-width key it was cut from —
// the squaring and the general product at top−1, rotations (hoisted,
// unhoisted) and the matvec kernel at top−2 — so the kernels read nothing
// the narrow key drops. A key narrower than the level it is used at is
// ErrKeyShape, not a panic.
func TestNarrowKeySwitchBitIdentity(t *testing.T) {
	for _, prof := range servedProfiles {
		fx := newBitIdentityFixture(t, prof.logN)
		ctx, ev := fx.ctx, fx.ev
		top := ctx.MaxLevel()
		relinLevel, galoisLevel := top-1, top-transcipherLevels
		full := fx.kg.GenRelinKey(fx.sk)
		if full.Level() != top {
			t.Fatalf("%s: reference key built for level %d, want the top %d", prof.id, full.Level(), top)
		}
		narrow := narrowKey(ctx, full, relinLevel)

		a := fx.encrypt(t, ctx.Params.Slots(), relinLevel)
		b := fx.encrypt(t, ctx.Params.Slots(), relinLevel)
		for _, tc := range []struct {
			name string
			x, y *Ciphertext
		}{{"square", a, a}, {"product", a, b}} {
			want, got := ctx.NewCiphertext(relinLevel), ctx.NewCiphertext(relinLevel)
			if err := ev.MulRelinInto(tc.x, tc.y, full, want); err != nil {
				t.Fatal(err)
			}
			if err := ev.MulRelinInto(tc.x, tc.y, &narrow, got); err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, fmt.Sprintf("%s %s at level %d", prof.id, tc.name, relinLevel), got, want)
		}
		topCt := fx.encrypt(t, ctx.Params.Slots(), top)
		if err := ev.MulRelinInto(topCt, topCt, &narrow, ctx.NewCiphertext(top)); !errors.Is(err, ErrKeyShape) {
			t.Errorf("%s: a level-%d relinearization key at level %d: err = %v, want ErrKeyShape", prof.id, relinLevel, top, err)
		}

		const dim = 16
		m, bias := randomMatrix(fx.rng, dim)
		rots := append(BSGSRotations(dim), 5, -3)
		fullSet := fx.kg.GenGaloisKeys(fx.sk, rots)
		narrowSet := narrowKeys(ctx, fullSet, galoisLevel)
		ct := fx.encrypt(t, dim, galoisLevel)
		h := ev.NewHoisted()
		ev.HoistInto(h, ct)
		for _, rot := range rots {
			what := fmt.Sprintf("%s rotation %d at level %d", prof.id, rot, galoisLevel)
			want, got := ctx.NewCiphertext(galoisLevel), ctx.NewCiphertext(galoisLevel)
			if err := ev.RotateHoistedInto(h, rot, fullSet, want); err != nil {
				t.Fatal(err)
			}
			if err := ev.RotateHoistedInto(h, rot, narrowSet, got); err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, what+": hoisted", got, want)
			if err := ev.RotateInto(ct, rot, fullSet, want); err != nil {
				t.Fatal(err)
			}
			if err := ev.RotateInto(ct, rot, narrowSet, got); err != nil {
				t.Fatal(err)
			}
			sameCiphertext(t, what+": unhoisted", got, want)
		}
		plan, err := ev.NewMatVecPlan(m, bias, galoisLevel, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, got := ctx.NewCiphertext(galoisLevel-MatVecLevels), ctx.NewCiphertext(galoisLevel-MatVecLevels)
		if err := ev.MatVecInto(plan, ct, fullSet, want); err != nil {
			t.Fatal(err)
		}
		if err := ev.MatVecInto(plan, ct, narrowSet, got); err != nil {
			t.Fatal(err)
		}
		sameCiphertext(t, fmt.Sprintf("%s matvec at level %d", prof.id, galoisLevel), got, want)

		above := fx.encrypt(t, ctx.Params.Slots(), galoisLevel+1)
		ev.HoistInto(h, above)
		if err := ev.RotateHoistedInto(h, 1, narrowSet, ctx.NewCiphertext(galoisLevel+1)); !errors.Is(err, ErrKeyShape) {
			t.Errorf("%s: a level-%d Galois key at level %d: err = %v, want ErrKeyShape", prof.id, galoisLevel, galoisLevel+1, err)
		}
	}
}
