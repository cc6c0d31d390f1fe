package ckks

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"quhe/internal/he/ring"
)

func wireTestContext(t testing.TB) *Context {
	t.Helper()
	p, err := NewParams(8, 25, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randomCiphertext(ctx *Context, seed int64, level int) *Ciphertext {
	kg := NewKeyGenerator(ctx, seed)
	ct := ctx.NewCiphertext(level)
	for i := 0; i <= level; i++ {
		ctx.Limb(i).UniformPolyInto(kg.rng, ct.C0[i])
		ctx.Limb(i).UniformPolyInto(kg.rng, ct.C1[i])
	}
	ct.Scale = ctx.Params.Scale()
	return ct
}

func ciphertextsEqual(a, b *Ciphertext) bool {
	if a.Level != b.Level || math.Float64bits(a.Scale) != math.Float64bits(b.Scale) ||
		len(a.C0) != len(b.C0) || len(a.C1) != len(b.C1) {
		return false
	}
	for i := range a.C0 {
		if len(a.C0[i]) != len(b.C0[i]) || len(a.C1[i]) != len(b.C1[i]) {
			return false
		}
		for j := range a.C0[i] {
			if a.C0[i][j] != b.C0[i][j] || a.C1[i][j] != b.C1[i][j] {
				return false
			}
		}
	}
	return true
}

func TestCiphertextWireRoundTrip(t *testing.T) {
	ctx := wireTestContext(t)
	for level := 0; level <= ctx.MaxLevel(); level++ {
		ct := randomCiphertext(ctx, int64(7+level), level)
		enc := ct.AppendBinary(nil)
		got := new(Ciphertext)
		n, err := got.DecodeFrom(enc)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if n != len(enc) {
			t.Errorf("level %d: consumed %d of %d bytes", level, n, len(enc))
		}
		if !ciphertextsEqual(ct, got) {
			t.Errorf("level %d: round trip not bit-identical", level)
		}
	}
}

// TestCiphertextWireMatchesGob pins the acceptance contract: the v3 codec
// and the gob path decode to bit-identical ciphertexts.
func TestCiphertextWireMatchesGob(t *testing.T) {
	ctx := wireTestContext(t)
	ct := randomCiphertext(ctx, 11, ctx.MaxLevel())
	ct.Scale = 1234.5678e9 // non-trivial mantissa: float identity must hold bit-for-bit

	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(ct); err != nil {
		t.Fatal(err)
	}
	viaGob := new(Ciphertext)
	if err := gob.NewDecoder(&gobBuf).Decode(viaGob); err != nil {
		t.Fatal(err)
	}

	viaWire := new(Ciphertext)
	if _, err := viaWire.DecodeFrom(ct.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !ciphertextsEqual(viaGob, viaWire) {
		t.Error("wire codec and gob disagree on the decoded ciphertext")
	}
}

// TestCiphertextCodecZeroAlloc pins the steady-state contract for the
// serving hot path: encode into a capacious reused buffer, decode into a
// pre-sized receiver — zero allocations either way.
func TestCiphertextCodecZeroAlloc(t *testing.T) {
	ctx := wireTestContext(t)
	ct := randomCiphertext(ctx, 13, ctx.MaxLevel())
	enc := ct.AppendBinary(nil)
	buf := make([]byte, 0, len(enc))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = ct.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendBinary allocs/op = %g, want 0", allocs)
	}
	dst := ctx.NewCiphertext(ctx.MaxLevel())
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := dst.DecodeFrom(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeFrom allocs/op = %g, want 0", allocs)
	}
	if !ciphertextsEqual(ct, dst) {
		t.Error("pooled-receiver decode diverged")
	}
}

func TestKeyWireRoundTrip(t *testing.T) {
	ctx := wireTestContext(t)
	kg := NewKeyGenerator(ctx, 19)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinKey(sk)

	gotRLK := new(RelinKey)
	encRLK := rlk.AppendBinary(nil)
	if n, err := gotRLK.DecodeFrom(encRLK); err != nil || n != len(encRLK) {
		t.Fatalf("relin key decode: n=%d err=%v", n, err)
	}
	if len(gotRLK.Parts) != len(rlk.Parts) {
		t.Fatalf("relin key shape: digits=%d, want %d", len(gotRLK.Parts), len(rlk.Parts))
	}
	for d := range rlk.Parts {
		for j := 0; j < 2; j++ {
			for ell := range rlk.Parts[d][j] {
				for i := range rlk.Parts[d][j][ell] {
					if gotRLK.Parts[d][j][ell][i] != rlk.Parts[d][j][ell][i] {
						t.Fatalf("relin key digit %d comp %d level %d coefficient %d differs", d, j, ell, i)
					}
				}
			}
		}
	}
}

// TestWireDecodeTruncated feeds every strict prefix of valid encodings to
// the decoders: all must fail with a typed error, none may panic.
func TestWireDecodeTruncated(t *testing.T) {
	ctx := wireTestContext(t)
	kg := NewKeyGenerator(ctx, 23)
	sk := kg.GenSecretKey()
	ct := randomCiphertext(ctx, 29, 1)

	check := func(name string, enc []byte, decode func([]byte) (int, error)) {
		t.Helper()
		for cut := 0; cut < len(enc); cut += 1 + cut/7 { // sample prefixes
			_, err := decode(enc[:cut])
			if err == nil {
				t.Fatalf("%s: truncation at %d accepted", name, cut)
			}
			if !errors.Is(err, ErrShortBuffer) && !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: truncation at %d: untyped error %v", name, cut, err)
			}
		}
	}
	check("ciphertext", ct.AppendBinary(nil), func(b []byte) (int, error) {
		return new(Ciphertext).DecodeFrom(b)
	})
	check("relinkey", kg.GenRelinKey(sk).AppendBinary(nil), func(b []byte) (int, error) {
		return new(RelinKey).DecodeFrom(b)
	})
}

func TestWireDecodeMalformed(t *testing.T) {
	ctx := wireTestContext(t)
	ct := randomCiphertext(ctx, 31, 0)
	enc := ct.AppendBinary(nil)

	badLevel := append([]byte(nil), enc...)
	badLevel[0] = 200
	if _, err := new(Ciphertext).DecodeFrom(badLevel); !errors.Is(err, ErrMalformed) {
		t.Errorf("absurd level: err = %v, want ErrMalformed", err)
	}
	badN := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(badN[9:13], 1<<30)
	if _, err := new(Ciphertext).DecodeFrom(badN); !errors.Is(err, ErrMalformed) {
		t.Errorf("absurd degree: err = %v, want ErrMalformed", err)
	}
	nonPow2 := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(nonPow2[9:13], 100)
	if _, err := new(Ciphertext).DecodeFrom(nonPow2); !errors.Is(err, ErrMalformed) {
		t.Errorf("non-power-of-two degree: err = %v, want ErrMalformed", err)
	}
}

// FuzzCiphertextRoundTrip asserts two properties: (1) decoding arbitrary
// bytes returns typed errors and never panics; (2) a ciphertext built from
// the fuzz input encodes and decodes back bit-identically.
func FuzzCiphertextRoundTrip(f *testing.F) {
	ctx, err := NewContext(Params{LogN: 6, BaseBits: 25, ScaleBits: 16, Depth: 1, Sigma: 3.2, SpecialBits: 26})
	if err != nil {
		f.Fatal(err)
	}
	seed := randomCiphertext(ctx, 37, 1).AppendBinary(nil)
	f.Add(seed)
	f.Add(seed[:13])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile decode: must not panic; failures must be typed.
		ct := new(Ciphertext)
		if _, err := ct.DecodeFrom(data); err != nil {
			if !errors.Is(err, ErrShortBuffer) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ring.ErrShortBuffer) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
		// Constructive round trip: coefficients derived from the input.
		src := &Ciphertext{
			C0:    ring.RNSPoly{make(ring.Poly, 64), make(ring.Poly, 64)},
			C1:    ring.RNSPoly{make(ring.Poly, 64), make(ring.Poly, 64)},
			Level: 1, Scale: 1 << 16,
		}
		for l := range src.C0 {
			for i := range src.C0[l] {
				var v uint64
				for j := 0; j < 8; j++ {
					v = v<<8 | uint64(byteAt(data, 8*(64*l+i)+j))
				}
				src.C0[l][i] = v
				src.C1[l][i] = v ^ 0x5555555555555555
			}
		}
		enc := src.AppendBinary(nil)
		got := new(Ciphertext)
		if _, err := got.DecodeFrom(enc); err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !ciphertextsEqual(src, got) {
			t.Fatal("round trip not bit-identical")
		}
	})
}

func byteAt(data []byte, i int) byte {
	if len(data) == 0 {
		return 0
	}
	return data[i%len(data)]
}

// TestKeyDecodeSlabLimbs checks that decoded key limbs, cut from one slab
// per gadget, are capped at N coefficients, so no limb can grow
// into its neighbour's storage.
func TestKeyDecodeSlabLimbs(t *testing.T) {
	ctx := wireTestContext(t)
	n := ctx.Params.N()
	for level := 0; level <= ctx.MaxLevel(); level++ {
		kg := keyGenAt(t, ctx, level, 43)
		sk := kg.GenSecretKey()
		var gk GaloisKey
		if _, err := gk.DecodeFrom(kg.GenGaloisKey(sk, 1).AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
		var polys []ring.RNSPoly
		for _, part := range gk.Parts {
			polys = append(polys, part[0], part[1])
		}
		for i, p := range polys {
			for j, limb := range p {
				if len(limb) != n || cap(limb) != n {
					t.Fatalf("key for level %d, poly %d limb %d: len %d cap %d, want both %d", level, i, j, len(limb), cap(limb), n)
				}
			}
		}
	}
}
