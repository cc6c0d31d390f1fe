package ckks

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"quhe/internal/he/ring"
)

func galoisKeysEqual(a, b *GaloisKey) bool {
	if a.Rot != b.Rot || a.El != b.El || !slices.Equal(a.QP, b.QP) || a.Seed != b.Seed || len(a.Parts) != len(b.Parts) {
		return false
	}
	for d := range a.Parts {
		for j := 0; j < 2; j++ {
			if len(a.Parts[d][j]) != len(b.Parts[d][j]) {
				return false
			}
			for ell := range a.Parts[d][j] {
				for i := range a.Parts[d][j][ell] {
					if a.Parts[d][j][ell][i] != b.Parts[d][j][ell][i] {
						return false
					}
				}
			}
		}
	}
	return true
}

func TestGaloisKeyWireRoundTrip(t *testing.T) {
	ctx := wireTestContext(t)
	kg := NewKeyGenerator(ctx, 29)
	sk := kg.GenSecretKey()
	gks := kg.GenGaloisKeys(sk, []int{1, 2, -1, 8})

	// Single key round trip, bit-exact.
	var one *GaloisKey
	for _, gk := range gks.Keys {
		one = gk
		break
	}
	enc := one.AppendBinary(nil)
	got := new(GaloisKey)
	if n, err := got.DecodeFrom(enc); err != nil || n != len(enc) {
		t.Fatalf("galois key decode: n=%d err=%v", n, err)
	}
	if !galoisKeysEqual(one, got) {
		t.Fatal("galois key round trip differs")
	}

	// Set round trip preserves every key; re-encoding is deterministic.
	encSet := gks.AppendBinary(nil)
	gotSet := new(GaloisKeySet)
	if n, err := gotSet.DecodeFrom(encSet); err != nil || n != len(encSet) {
		t.Fatalf("galois key set decode: n=%d err=%v", n, err)
	}
	if len(gotSet.Keys) != len(gks.Keys) {
		t.Fatalf("set size %d, want %d", len(gotSet.Keys), len(gks.Keys))
	}
	for el, gk := range gks.Keys {
		if !galoisKeysEqual(gk, gotSet.Keys[el]) {
			t.Fatalf("key for element %d differs after round trip", el)
		}
	}
	reenc := gotSet.AppendBinary(nil)
	if string(reenc) != string(encSet) {
		t.Fatal("set re-encoding not deterministic")
	}

	// Truncation: every strict prefix fails typed.
	for _, cut := range []int{0, 1, 4, 11, 12, 17, len(enc) / 2, len(enc) - 1} {
		if _, err := new(GaloisKey).DecodeFrom(enc[:cut]); err == nil {
			t.Fatalf("prefix %d accepted", cut)
		} else if !errors.Is(err, ErrShortBuffer) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ring.ErrShortBuffer) {
			t.Fatalf("prefix %d: untyped error %v", cut, err)
		}
	}

	// A rotation/element mismatch is rejected — a tampered key cannot be
	// installed under the wrong automorphism.
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(bad[0:4], uint32(int32(one.Rot+1)))
	if _, err := new(GaloisKey).DecodeFrom(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mismatched rot/element: err = %v, want ErrMalformed", err)
	}

	// Duplicate elements in a set are rejected.
	dup := binary.LittleEndian.AppendUint16(nil, 2)
	dup = one.AppendBinary(dup)
	dup = one.AppendBinary(dup)
	if _, err := new(GaloisKeySet).DecodeFrom(dup); !errors.Is(err, ErrMalformed) {
		t.Fatalf("duplicate element: err = %v, want ErrMalformed", err)
	}

	// Absurd set count is rejected before any allocation.
	huge := binary.LittleEndian.AppendUint16(nil, maxWireGaloisKeys+1)
	if _, err := new(GaloisKeySet).DecodeFrom(huge); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized count: err = %v, want ErrMalformed", err)
	}
}

// TestGaloisKeyCodecZeroAlloc pins the encode path's steady-state
// allocation count at zero given a sufficient buffer.
func TestGaloisKeyCodecZeroAlloc(t *testing.T) {
	ctx := wireTestContext(t)
	kg := NewKeyGenerator(ctx, 31)
	sk := kg.GenSecretKey()
	gk := kg.GenGaloisKey(sk, 1)
	buf := gk.AppendBinary(nil)
	allocs := testing.AllocsPerRun(32, func() {
		buf = gk.AppendBinary(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("galois key encode allocates %v per op, want 0", allocs)
	}
}

// FuzzGaloisKeyRoundTrip asserts (1) hostile decodes fail typed and never
// panic, and (2) a structurally valid key built from the fuzz input
// round-trips bit-identically. The corpus seeds keys of every width a
// depth-3 chain builds, the served matvec level's among them.
func FuzzGaloisKeyRoundTrip(f *testing.F) {
	ctx, err := NewContext(Params{LogN: 6, BaseBits: 25, ScaleBits: 16, Depth: 3, Sigma: 3.2, SpecialBits: 26})
	if err != nil {
		f.Fatal(err)
	}
	sk := NewKeyGenerator(ctx, 33).GenSecretKey()
	for level := 0; level <= ctx.MaxLevel(); level++ {
		seed := keyGenAt(f, ctx, level, 33).GenGaloisKey(sk, 3).AppendBinary(nil)
		f.Add(seed)
		f.Add(seed[:20])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gk := new(GaloisKey)
		if _, err := gk.DecodeFrom(data); err != nil {
			if !errors.Is(err, ErrShortBuffer) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ring.ErrShortBuffer) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
		set := new(GaloisKeySet)
		if _, err := set.DecodeFrom(data); err != nil {
			if !errors.Is(err, ErrShortBuffer) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ring.ErrShortBuffer) {
				t.Fatalf("untyped set decode error: %v", err)
			}
		}
		// Constructive round trip: a well-formed key whose moduli, seed and
		// component-0 coefficients derive from the input, component 1
		// expanded from that seed as a generator would.
		const n, digits, limbs = 64, 2, 3
		word := func(i int) uint64 {
			var v uint64
			for by := 0; by < 8; by++ {
				v = v<<8 | uint64(byteAt(data, 8*i+by))
			}
			return v
		}
		rot := int(byteAt(data, 0)) % (n / 2)
		src := &GaloisKey{Rot: rot, El: ring.GaloisElement(rot, n)}
		src.QP = make([]uint64, limbs)
		for t := range src.QP {
			src.QP[t] = 2 + word(t)%(1<<62-2)
		}
		for i := range src.Seed {
			src.Seed[i] = byteAt(data, 3*i+1)
		}
		src.Parts = newGadget(digits, limbs, n)
		for d, part := range src.Parts {
			for ell, limb := range part[0] {
				for i := range limb {
					limb[i] = word(n*(limbs*d+ell) + i)
				}
			}
		}
		expandUniform(&src.Seed, src.QP, src.Parts)
		enc := src.AppendBinary(nil)
		got := new(GaloisKey)
		if k, err := got.DecodeFrom(enc); err != nil || k != len(enc) {
			t.Fatalf("round trip decode: k=%d err=%v", k, err)
		}
		if !galoisKeysEqual(src, got) {
			t.Fatal("round trip not bit-identical")
		}
	})
}

// TestGaloisKeySetEncodeAllocs fences the key-set encode into a nil
// buffer at two allocations: the buffer, grown once to BinarySize, and
// the element-order slice. A geometric regrowth of the buffer would show
// up here as one allocation per doubling.
func TestGaloisKeySetEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race slices.Grow allocates twice (see raceEnabled)")
	}
	ctx := wireTestContext(t)
	kg := NewKeyGenerator(ctx, 37)
	gks := kg.GenGaloisKeys(kg.GenSecretKey(), BSGSRotations(64))
	allocs := testing.AllocsPerRun(16, func() {
		_ = gks.AppendBinary(nil)
	})
	if allocs > 2 {
		t.Errorf("galois key set encode allocates %v times into a nil buffer, want ≤ 2", allocs)
	}
}

// TestSeededKeyDecodeAllocs pins the allocations of one decoded Galois key
// to a small constant that does not grow with the digit or limb count: the
// key, its moduli, the gadget's three backing arrays and the PRG's cipher
// and stream — never one per (digit, limb) cell.
func TestSeededKeyDecodeAllocs(t *testing.T) {
	var counts []float64
	for _, depth := range []int{1, 4} {
		ctx, err := NewContext(Params{LogN: 10, BaseBits: 40, ScaleBits: 30, Depth: depth, Sigma: 3.2, SpecialBits: 61})
		if err != nil {
			t.Fatal(err)
		}
		// A key over the whole chain and one built for level 1, the
		// served matvec level.
		for _, level := range []int{depth, 1} {
			kg := keyGenAt(t, ctx, level, 41)
			enc := kg.GenGaloisKey(kg.GenSecretKey(), 1).AppendBinary(nil)
			allocs := testing.AllocsPerRun(16, func() {
				if _, err := new(GaloisKey).DecodeFrom(enc); err != nil {
					t.Fatal(err)
				}
			})
			counts = append(counts, allocs)
		}
	}
	if counts[0] != counts[1] || counts[0] != counts[2] || counts[0] != counts[3] || counts[0] > 8 {
		t.Errorf("galois key decode allocates %v times at depth 1 (keys for levels 1, 1) and %v at depth 4 (levels 4, 1), want one constant ≤ 8", counts[:2], counts[2:])
	}
}
