package ckks_test

import (
	"errors"
	"slices"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
)

// switchingKeysEqual reports whether two switching keys agree on their
// basis, seed and every coefficient of both components.
func switchingKeysEqual(a, b *ckks.SwitchingKey) bool {
	if !slices.Equal(a.QP, b.QP) || a.Seed != b.Seed || len(a.Parts) != len(b.Parts) {
		return false
	}
	for j := range a.Parts {
		for c := range a.Parts[j] {
			if len(a.Parts[j][c]) != len(b.Parts[j][c]) {
				return false
			}
			for t := range a.Parts[j][c] {
				if !slices.Equal(a.Parts[j][c][t], b.Parts[j][c][t]) {
					return false
				}
			}
		}
	}
	return true
}

// TestSeededKeyDecodeMatchesGenerator: a relinearization or Galois key
// decoded from the wire, where component 1 travels only as its seed, is
// bit-identical to the generator's key — component 1 included — and
// passes the context's check, on every registered profile.
func TestSeededKeyDecodeMatchesGenerator(t *testing.T) {
	for _, prof := range profile.Default().Profiles() {
		t.Run(prof.ID, func(t *testing.T) {
			ctx, err := prof.Context()
			if err != nil {
				t.Fatal(err)
			}
			kg := ckks.NewKeyGenerator(ctx, 13)
			sk := kg.GenSecretKey()

			rlk := kg.GenRelinKey(sk)
			var gotRLK ckks.RelinKey
			if _, err := gotRLK.DecodeFrom(rlk.AppendBinary(nil)); err != nil {
				t.Fatal(err)
			}
			if !switchingKeysEqual(rlk, &gotRLK) {
				t.Error("decoded relinearization key differs from the generator's")
			}
			if err := ctx.CheckSwitchingKey(&gotRLK); err != nil {
				t.Errorf("decoded relinearization key refused: %v", err)
			}

			gk := kg.GenGaloisKey(sk, -3)
			var gotGK ckks.GaloisKey
			if _, err := gotGK.DecodeFrom(gk.AppendBinary(nil)); err != nil {
				t.Fatal(err)
			}
			if gotGK.Rot != gk.Rot || gotGK.El != gk.El || !switchingKeysEqual(&gk.SwitchingKey, &gotGK.SwitchingKey) {
				t.Error("decoded Galois key differs from the generator's")
			}
			if err := ctx.CheckSwitchingKey(&gotGK.SwitchingKey); err != nil {
				t.Errorf("decoded Galois key refused: %v", err)
			}
		})
	}
}

// TestSeededKeyTruncation: a switching key cut anywhere inside its seed or
// its component-0 runs decodes to ErrShortBuffer, for a relinearization
// key and a Galois key alike.
func TestSeededKeyTruncation(t *testing.T) {
	ctx, err := profile.Default().Default().Context()
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 17)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinKey(sk)
	// The seed starts after the gadget header (6 bytes) and the moduli.
	seedAt := 6 + 8*len(rlk.QP)
	for _, c := range []struct {
		name   string
		enc    []byte
		offset int // where the gadget starts
		decode func([]byte) (int, error)
	}{
		{"relin key", rlk.AppendBinary(nil), 0, new(ckks.RelinKey).DecodeFrom},
		{"galois key", kg.GenGaloisKey(sk, 1).AppendBinary(nil), 12, new(ckks.GaloisKey).DecodeFrom},
	} {
		seed := c.offset + seedAt
		for name, cut := range map[string]int{
			"before the seed":             seed,
			"inside the seed":             seed + ckks.SeedSize/2,
			"after the seed":              seed + ckks.SeedSize,
			"inside the first run":        seed + ckks.SeedSize + 8,
			"one byte before the end":     len(c.enc) - 1,
			"inside the last digit's run": len(c.enc) - 8*ctx.Params.N(),
		} {
			if _, err := c.decode(c.enc[:cut]); !errors.Is(err, ckks.ErrShortBuffer) {
				t.Errorf("%s cut %s (%d of %d bytes): err = %v, want ErrShortBuffer", c.name, name, cut, len(c.enc), err)
			}
		}
	}
}
