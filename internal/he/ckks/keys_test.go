package ckks

import (
	"errors"
	"testing"
)

// TestCheckSwitchingKey: generated relinearization and Galois keys pass;
// a gadget over another basis or with the wrong digit count, limb count or
// degree is ErrKeyShape and one with a component-0 residue at or above its
// modulus — chain or special — is ErrMalformed. keySwitch indexes and
// multiplies on these assumptions.
func TestCheckSwitchingKey(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	fresh := func() *SwitchingKey { return kg.GenRelinKey(sk) }
	if err := ctx.CheckSwitchingKey(fresh()); err != nil {
		t.Fatalf("generated relinearization key refused: %v", err)
	}
	for el, gk := range kg.GenGaloisKeys(sk, []int{1, -2}).Keys {
		if err := ctx.CheckSwitchingKey(&gk.SwitchingKey); err != nil {
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
		if err := ctx.CheckSwitchingKey(k); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
