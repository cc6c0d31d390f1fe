package ckks

import (
	"errors"
	"math/rand"
	"testing"
)

// TestSamplers checks the secret and error distributions every key and
// ciphertext draws from: ternary values in {−1, 0, 1} and rounded
// Gaussians of plausible size and zero mean at σ = 3.2.
func TestSamplers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]int64, 1024)

	ternaryInts(rng, vals)
	for i, c := range vals {
		if c < -1 || c > 1 {
			t.Fatalf("ternary coeff %d = %d", i, c)
		}
	}

	gaussianInts(rng, 3.2, vals)
	var sum float64
	for _, c := range vals {
		if c > 40 || c < -40 {
			t.Fatalf("gaussian coeff %d implausibly large for σ=3.2", c)
		}
		sum += float64(c)
	}
	if mean := sum / float64(len(vals)); mean > 1 || mean < -1 {
		t.Errorf("gaussian mean %v far from 0", mean)
	}
}

// TestCheckSwitchingKey: generated relinearization and Galois keys pass
// at the level they were built for; a gadget over another basis or with
// the wrong digit count, limb count or degree is ErrKeyShape and one with
// a component-0 residue at or above its modulus — chain or special — is
// ErrMalformed. keySwitch indexes and multiplies on these assumptions.
func TestCheckSwitchingKey(t *testing.T) {
	ctx := testContext(t)
	top := ctx.MaxLevel()
	kg := NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	fresh := func() *SwitchingKey { return kg.GenRelinKey(sk) }
	if err := ctx.CheckSwitchingKey(fresh(), top); err != nil {
		t.Fatalf("generated relinearization key refused: %v", err)
	}
	for el, gk := range kg.GenGaloisKeys(sk, []int{1, -2}).Keys {
		if err := ctx.CheckSwitchingKey(&gk.SwitchingKey, top); err != nil {
			t.Fatalf("generated Galois key %d refused: %v", el, err)
		}
	}
	special := len(ctx.Primes)
	cases := []struct {
		name string
		mut  func(k *SwitchingKey)
		want error
	}{
		{"another basis", func(k *SwitchingKey) {
			k.QP = append([]uint64(nil), k.QP...)
			k.QP[1] = ctx.Primes[0]
		}, ErrKeyShape},
		{"basis without the special prime", func(k *SwitchingKey) { k.QP = k.QP[:special] }, ErrKeyShape},
		{"no digits", func(k *SwitchingKey) { k.Parts = nil }, ErrKeyShape},
		{"one digit short", func(k *SwitchingKey) { k.Parts = k.Parts[:len(k.Parts)-1] }, ErrKeyShape},
		{"component without the special limb", func(k *SwitchingKey) { k.Parts[1][1] = k.Parts[1][1][:special] }, ErrKeyShape},
		{"ragged limb", func(k *SwitchingKey) { k.Parts[0][0][1] = k.Parts[0][0][1][:3] }, ErrKeyShape},
		{"chain residue equal to its prime", func(k *SwitchingKey) { k.Parts[1][0][1][9] = ctx.Primes[1] }, ErrMalformed},
		{"special residue equal to P", func(k *SwitchingKey) { k.Parts[0][0][special][0] = ctx.Special }, ErrMalformed},
	}
	for _, tc := range cases {
		k := fresh()
		tc.mut(k)
		if err := ctx.CheckSwitchingKey(k, top); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
