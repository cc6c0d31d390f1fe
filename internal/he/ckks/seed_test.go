package ckks_test

import (
	"bytes"
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
	for _, id := range profile.Default().IDs() {
		prof, _ := profile.Default().Get(id)
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
			if err := ctx.CheckSwitchingKey(&gotRLK, ctx.RelinLevel()); err != nil {
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
			if err := ctx.CheckSwitchingKey(&gotGK.SwitchingKey, ctx.GaloisLevel()); err != nil {
				t.Errorf("decoded Galois key refused: %v", err)
			}
		})
	}
}

// TestGenGaloisKeyIntoMatchesSet: a stream of Galois keys generated one by
// one into a single reused GaloisKey, over KeyRotations of a rotation list
// carrying an identity and a repeat, encodes byte for byte like the keys
// GenGaloisKeys builds from the same generator state, on every registered
// profile — and every key after the first lands in the first one's gadget.
func TestGenGaloisKeyIntoMatchesSet(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		prof, _ := profile.Default().Get(id)
		t.Run(prof.ID, func(t *testing.T) {
			ctx, err := prof.Context()
			if err != nil {
				t.Fatal(err)
			}
			rots := append(ckks.BSGSRotations(64), 0, 3)
			setGen := ckks.NewKeyGenerator(ctx, 19)
			set := setGen.GenGaloisKeys(setGen.GenSecretKey(), rots)
			streamGen := ckks.NewKeyGenerator(ctx, 19)
			sk := streamGen.GenSecretKey()

			keyRots := ckks.KeyRotations(ctx.Params.N(), rots)
			if len(keyRots) != len(set.Keys) {
				t.Fatalf("KeyRotations lists %d rotations, the set holds %d keys", len(keyRots), len(set.Keys))
			}
			var gk ckks.GaloisKey
			var slab *uint64
			for i, rot := range keyRots {
				streamGen.GenGaloisKeyInto(sk, rot, &gk)
				want := set.Key(gk.El)
				if want == nil || want.Rot != rot {
					t.Fatalf("rotation %d: the set holds no key for element %d", rot, gk.El)
				}
				if !bytes.Equal(gk.AppendBinary(nil), want.AppendBinary(nil)) || !switchingKeysEqual(&gk.SwitchingKey, &want.SwitchingKey) {
					t.Errorf("rotation %d: streamed key differs from the set's", rot)
				}
				if i == 0 {
					slab = &gk.Parts[0][0][0][0]
				} else if &gk.Parts[0][0][0][0] != slab {
					t.Errorf("rotation %d: key generated into fresh storage, want the reused gadget", rot)
				}
			}
		})
	}
}

// TestGenGaloisKeyIntoAllocs: once a generator has built one key into a
// GaloisKey, each further key into it allocates only the PRG's handful
// (the seed, the AES cipher and its stream) — never its gadget, its errors
// or its gadget terms — on every registered profile.
func TestGenGaloisKeyIntoAllocs(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		prof, _ := profile.Default().Get(id)
		ctx, err := prof.Context()
		if err != nil {
			t.Fatal(err)
		}
		kg := ckks.NewKeyGenerator(ctx, 23)
		sk := kg.GenSecretKey()
		var gk ckks.GaloisKey
		// The first pass builds the gadget and caches each rotation's
		// automorphism table, which the ring keeps for the process.
		const rots = 4
		for rot := 1; rot <= rots; rot++ {
			kg.GenGaloisKeyInto(sk, rot, &gk)
		}
		rot := 0
		allocs := testing.AllocsPerRun(2*rots, func() {
			rot = rot%rots + 1
			kg.GenGaloisKeyInto(sk, rot, &gk)
		})
		if allocs > 4 {
			t.Errorf("%s: %v allocations per key into reused storage, want ≤ 4", prof.ID, allocs)
		}
	}
}

// TestSeededKeyTruncation: a switching key cut anywhere inside its seed or
// its component-0 runs decodes to ErrShortBuffer, for a relinearization
// key and a Galois key alike.
func TestSeededKeyTruncation(t *testing.T) {
	def, _ := profile.Default().Get(profile.IDDefault)
	ctx, err := def.Context()
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
