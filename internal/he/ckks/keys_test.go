package ckks

import (
	"errors"
	"testing"

	"quhe/internal/he/ring"
)

// TestCheckSwitchingKey: generated relinearization and Galois keys pass;
// a gadget with the wrong digit count, limb count or degree is ErrKeyShape
// and one with a residue at or above its modulus — chain or special — is
// ErrMalformed. keySwitch indexes and multiplies on these assumptions.
func TestCheckSwitchingKey(t *testing.T) {
	ctx := testContext(t)
	kg := NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	fresh := func() [][2]ring.RNSPoly { return kg.GenRelinKey(sk).Parts }
	if err := ctx.CheckSwitchingKey(fresh()); err != nil {
		t.Fatalf("generated relinearization key refused: %v", err)
	}
	for el, gk := range kg.GenGaloisKeys(sk, []int{1, -2}).Keys {
		if err := ctx.CheckSwitchingKey(gk.Parts); err != nil {
			t.Fatalf("generated Galois key %d refused: %v", el, err)
		}
	}
	special := len(ctx.Primes)
	cases := []struct {
		name string
		mut  func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly
		want error
	}{
		{"no digits", func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly { return nil }, ErrKeyShape},
		{"one digit short", func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly { return p[:len(p)-1] }, ErrKeyShape},
		{"component without the special limb", func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly {
			p[1][1] = p[1][1][:special]
			return p
		}, ErrKeyShape},
		{"ragged limb", func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly {
			p[0][0][1] = p[0][0][1][:3]
			return p
		}, ErrKeyShape},
		{"chain residue equal to its prime", func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly {
			p[1][0][1][9] = ctx.Primes[1]
			return p
		}, ErrMalformed},
		{"special residue equal to P", func(p [][2]ring.RNSPoly) [][2]ring.RNSPoly {
			p[0][1][special][0] = ctx.Special
			return p
		}, ErrMalformed},
	}
	for _, tc := range cases {
		if err := ctx.CheckSwitchingKey(tc.mut(fresh())); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
