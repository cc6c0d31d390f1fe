package ckks

import (
	"math/big"
	"math/rand"
	"testing"

	"quhe/internal/he/ring"
)

// TestKeySwitchNoiseBoundVsBigInt checks the hybrid key switch against a
// big.Int CRT reference: for a uniform degree-2 term d2, the switched pair
// (c0, c1) after ModDown must satisfy c0 + c1·s = d2·s² + e with the
// centered error e bounded by the hybrid construction's noise estimate
// L·N·σ·q_max/P plus the ModDown rounding — orders of magnitude below the
// 2^50 scale a plaintext bit occupies.
func TestKeySwitchNoiseBoundVsBigInt(t *testing.T) {
	p, err := NewParams(8, 60, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	n := ctx.Params.N()
	kg := NewKeyGenerator(ctx, 11)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinKey(sk)
	ev := NewEvaluator(ctx, 12)
	tower := ctx.Tower
	level := ctx.MaxLevel()
	limbs := level + 1

	rng := rand.New(rand.NewSource(5))
	d2 := tower.NewPoly(limbs)
	for i := 0; i < limbs; i++ {
		tower.Qi[i].UniformPolyInto(rng, d2[i])
	}

	d2NTT := d2.Copy()
	for i := 0; i < limbs; i++ {
		tower.Qi[i].NTT(d2NTT[i])
	}
	ev.keySwitch(d2, d2NTT, rlk.Parts, level)
	ev.keySwitchDown(level)
	c0, c1 := ev.acc0[:limbs], ev.acc1[:limbs]

	// e = c0 + c1·s − d2·s² per limb (secret key limbs are NTT+Montgomery).
	ePoly := tower.NewPoly(limbs)
	for i := 0; i < limbs; i++ {
		mod := tower.Qi[i]
		t1 := make(ring.Poly, n)
		copy(t1, c1[i])
		mod.NTT(t1)
		mod.MulCoeffwiseMontgomery(t1, sk.S[i], t1)
		mod.INTT(t1)
		want := make(ring.Poly, n)
		copy(want, d2[i])
		mod.NTT(want)
		mod.MulCoeffwiseMontgomery(want, sk.S[i], want)
		mod.MulCoeffwiseMontgomery(want, sk.S[i], want)
		mod.INTT(want)
		mod.Add(t1, c0[i], t1)
		subLimb(mod, t1, want, ePoly[i])
	}

	// Centered big.Int CRT reconstruction of every error coefficient.
	prod := big.NewInt(1)
	for i := 0; i < limbs; i++ {
		prod.Mul(prod, new(big.Int).SetUint64(tower.Qi[i].Q))
	}
	half := new(big.Int).Rsh(prod, 1)
	// Bound: L·N·σ·q_max/P ≈ 4·256·3.2/2 ≈ 2^11 for this chain, plus the
	// ModDown rounding of roughly half the secret's weight. 2^20 leaves a
	// wide margin while staying 2^30 below the scale.
	bound := new(big.Int).Lsh(big.NewInt(1), 20)
	maxAbs := new(big.Int)
	for j := 0; j < n; j++ {
		x := new(big.Int)
		acc := big.NewInt(1)
		for i := 0; i < limbs; i++ {
			qi := new(big.Int).SetUint64(tower.Qi[i].Q)
			r := new(big.Int).SetUint64(ePoly[i][j])
			d := new(big.Int).Sub(r, x)
			d.Mod(d, qi)
			inv := new(big.Int).ModInverse(new(big.Int).Mod(acc, qi), qi)
			d.Mul(d, inv).Mod(d, qi)
			x.Add(x, d.Mul(d, acc))
			acc.Mul(acc, qi)
		}
		x.Mod(x, prod)
		if x.Cmp(half) > 0 {
			x.Sub(x, prod)
		}
		x.Abs(x)
		if x.Cmp(maxAbs) > 0 {
			maxAbs.Set(x)
		}
	}
	if maxAbs.Cmp(bound) > 0 {
		t.Fatalf("key-switch noise %s exceeds bound %s", maxAbs, bound)
	}
	if maxAbs.Sign() == 0 {
		t.Fatal("key-switch noise identically zero; reference is not exercising the error term")
	}
	t.Logf("max |e| = %s (bound %s)", maxAbs, bound)
}
