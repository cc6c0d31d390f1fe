package transcipher

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quhe/internal/he/ckks"
)

func testCipher(t testing.TB) (*Cipher, *ckks.Context) {
	t.Helper()
	p, err := ckks.NewParams(8, 24, 18, 2) // small ring for fast tests
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c, ctx
}

func TestNewValidation(t *testing.T) {
	p, err := ckks.NewParams(8, 35, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(shallow, 8); err == nil {
		t.Error("depth-1 context accepted")
	}
	_, ctx := testCipher(t)
	if _, err := New(ctx, 1); err == nil {
		t.Error("keyLen 1 accepted")
	}
	if _, err := New(ctx, 100); err == nil {
		t.Error("keyLen 100 accepted")
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	c, _ := testCipher(t)
	k1, err := c.DeriveKey([]byte("qkd key material"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := c.DeriveKey([]byte("qkd key material"))
	if err != nil {
		t.Fatal(err)
	}
	k3, err := c.DeriveKey([]byte("different material"))
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != c.keyLen {
		t.Fatalf("key has %d coords", len(k1))
	}
	same, diff := true, false
	for j := range k1 {
		if k1[j] != k2[j] {
			same = false
		}
		if k1[j] != k3[j] {
			diff = true
		}
		if k1[j] < -1 || k1[j] > 1 {
			t.Errorf("coord %d = %v outside [-1,1]", j, k1[j])
		}
	}
	if !same {
		t.Error("same material gave different keys")
	}
	if !diff {
		t.Error("different material gave identical keys")
	}
	if _, err := c.DeriveKey(nil); err == nil {
		t.Error("empty material accepted")
	}
}

func TestMaskUnmaskRoundTrip(t *testing.T) {
	c, _ := testCipher(t)
	key, err := c.DeriveKey([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, c.Slots())
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
	nonce := []byte("session-1")
	masked, err := c.Mask(key, nonce, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	// Masked data must differ from plaintext (keystream nonzero).
	movedCount := 0
	for i := range data {
		if math.Abs(masked[i]-data[i]) > 1e-9 {
			movedCount++
		}
	}
	if movedCount < len(data)/2 {
		t.Errorf("only %d of %d slots masked", movedCount, len(data))
	}
	ks, err := c.Keystream(key, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got := masked[i] - ks[i]; math.Abs(got-data[i]) > 1e-12 {
			t.Fatalf("slot %d: %v != %v", i, got, data[i])
		}
	}
}

func TestKeystreamBlockAndNonceSeparation(t *testing.T) {
	c, _ := testCipher(t)
	key, _ := c.DeriveKey([]byte("k"))
	ksN, err := c.Keystream(key, []byte("n2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each block draws its own stream, so no block's keystream is another
	// block's read at a shift: block b+1 must not replay block b from
	// some offset on, nor block 2³²−1 wrap onto block 0. Two float64
	// keystream values agree by chance with negligible probability, so a
	// handful of equal slots at one shift is reuse.
	blocks := []uint32{0, 1, 2, math.MaxUint32}
	ks := make([][]float64, len(blocks))
	for i, b := range blocks {
		if ks[i], err = c.Keystream(key, []byte("n1"), b); err != nil {
			t.Fatal(err)
		}
	}
	slots := c.Slots()
	for i := range blocks {
		for k := range blocks {
			if i == k {
				continue
			}
			for d := -slots + 1; d < slots; d++ {
				equal := 0
				for s := max(0, -d); s < slots && s+d < slots; s++ {
					if ks[k][s] == ks[i][s+d] {
						equal++
					}
				}
				if equal >= 4 {
					t.Errorf("block %d repeats block %d shifted by %d slots in %d slots", blocks[k], blocks[i], d, equal)
				}
			}
		}
	}
	for s := range ksN {
		if ksN[s] == ks[0][s] {
			t.Fatalf("nonces n1 and n2 share keystream slot %d", s)
		}
	}
}

// servedShape builds a cipher on the chain every served profile runs —
// 60-bit base, one 50-bit scale prime per level the keystream and the
// matvec kernel consume — at ring degree 2^logN, with the edge's eight key
// coordinates.
func servedShape(t testing.TB, logN int) *Cipher {
	t.Helper()
	p, err := ckks.NewParams(logN, 60, 50, Levels+ckks.MatVecLevels)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamedKeystreamMatchesMaterialized pins the client's streamed
// keystream to the server's materialized coefficient rows bit for bit:
// at the three served ring degrees, at degrees whose rows are shorter
// than one ChaCha20 block, and on blocks that straddle 2³¹ and end the
// 32-bit block space.
func TestStreamedKeystreamMatchesMaterialized(t *testing.T) {
	for _, logN := range []int{4, 5, 10, 11, 12} {
		c := servedShape(t, logN)
		key, err := c.DeriveKey([]byte(fmt.Sprintf("stream-%d", logN)))
		if err != nil {
			t.Fatal(err)
		}
		nonce := []byte("stream-nonce")
		slots := c.Slots()
		data := make([]float64, slots)
		for s := range data {
			data[s] = float64(s%7) / 8
		}
		for _, block := range []uint32{0, 1, 1 << 31, math.MaxUint32} {
			a, b, cc, err := c.CoeffBlock(nonce, block)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, slots)
			for s := range want {
				var lin, u, v float64
				for j, kj := range key {
					lin += a[j][s] * kj
					u += b[j][s] * kj
					v += cc[j][s] * kj
				}
				want[s] = lin + u*v
			}
			got, err := c.Keystream(key, nonce, block)
			if err != nil {
				t.Fatal(err)
			}
			// A partial block in place: the covered prefix is data + ks,
			// the tail the bare keystream, and the tail past dst untouched.
			n := slots/2 + 1
			masked := append([]float64(nil), data...)
			if err := c.MaskInto(masked[:slots-1], key, nonce, block, masked[:n]); err != nil {
				t.Fatal(err)
			}
			for s := range want {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("logN %d block %d slot %d: streamed %v, materialized %v", logN, block, s, got[s], want[s])
				}
				m := want[s]
				switch {
				case s < n:
					m = data[s] + want[s]
				case s == slots-1:
					m = data[s]
				}
				if math.Float64bits(masked[s]) != math.Float64bits(m) {
					t.Fatalf("logN %d block %d slot %d: masked %v, want %v", logN, block, s, masked[s], m)
				}
			}
		}
	}
}

// TestEncryptKeyMatchesFFTEncoding pins the constant encoding of a key
// coordinate to the FFT encoding of the slot-replicated coordinate,
// residue for residue, at the three served ring degrees: for 2000 random
// coordinates as DeriveKey draws them, and 0, ±1/2 and ±1. The FFT
// encoding must come out as the constant round(k·Δ) and nothing else;
// then EncryptKey, through an evaluator on the same seed, must produce
// the very ciphertexts the FFT path does.
func TestEncryptKeyMatchesFFTEncoding(t *testing.T) {
	for _, logN := range []int{10, 11, 12} {
		c := servedShape(t, logN)
		ctx, enc, scale := c.ctx, ckks.NewEncoder(c.ctx), c.scale()
		rng := rand.New(rand.NewSource(int64(logN)))
		coords := []float64{0, 1, -1, 0.5, -0.5}
		for i := 0; i < 2000; i++ {
			coords = append(coords, float64(int16(rng.Uint32()))/32768)
		}
		rep := make([]float64, c.Slots())
		for _, k := range coords {
			for s := range rep {
				rep[s] = k
			}
			pt, err := enc.EncodeRealAtLevel(rep, scale, ctx.MaxLevel())
			if err != nil {
				t.Fatal(err)
			}
			k0 := int64(math.Round(k * scale))
			for i, limb := range pt.Value {
				for j, r := range limb {
					want := uint64(0)
					if j == 0 {
						want = ctx.Tower.Qi[i].FromInt64(k0)
					}
					if r != want {
						t.Fatalf("logN %d, k = %v: FFT encoding limb %d coeff %d = %d, constant encoding %d", logN, k, i, j, r, want)
					}
				}
			}
		}

		kg := ckks.NewKeyGenerator(ctx, 61)
		pk := kg.GenPublicKey(kg.GenSecretKey())
		for _, key := range [][]float64{coords[:c.keyLen], coords[c.keyLen : 2*c.keyLen]} {
			got, err := c.EncryptKey(ckks.NewEvaluator(ctx, 62), pk, key)
			if err != nil {
				t.Fatal(err)
			}
			ev := ckks.NewEvaluator(ctx, 62)
			for j, kj := range key {
				for s := range rep {
					rep[s] = kj
				}
				pt, err := enc.EncodeRealAtLevel(rep, scale, ctx.MaxLevel())
				if err != nil {
					t.Fatal(err)
				}
				want := ev.Encrypt(pk, pt)
				if got[j].Level != want.Level || got[j].Scale != want.Scale {
					t.Fatalf("logN %d coordinate %d: level/scale differ", logN, j)
				}
				for l := range want.C0 {
					for x := range want.C0[l] {
						if got[j].C0[l][x] != want.C0[l][x] || got[j].C1[l][x] != want.C1[l][x] {
							t.Fatalf("logN %d coordinate %d: ciphertext differs at limb %d coeff %d", logN, j, l, x)
						}
					}
				}
			}
		}
	}
}

// TestMaskAllocs holds the client's masking to its output: the streamed
// keystream lives on the stack.
func TestMaskAllocs(t *testing.T) {
	c := servedShape(t, 12)
	key, err := c.DeriveKey([]byte("allocs"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, c.Slots())
	nonce := []byte("allocs-nonce")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Mask(key, nonce, 9, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Mask allocates %v objects, want 1 (its output)", allocs)
	}
	dst := make([]float64, c.Slots())
	if allocs := testing.AllocsPerRun(5, func() {
		if err := c.MaskInto(dst, key, nonce, 9, data[:100]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MaskInto allocates %v objects, want 0", allocs)
	}
}

// TestTranscipheredComputation goes one step further: after transciphering
// the server computes on the recovered ciphertext (an encrypted weighted
// sum), matching the paper's encrypted-prediction workload.
func TestTranscipheredComputation(t *testing.T) {
	c, ctx := testCipher(t)
	kg := ckks.NewKeyGenerator(ctx, 11)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := ckks.NewEvaluator(ctx, 12)
	enc := ckks.NewEncoder(ctx)

	key, err := c.DeriveKey([]byte("k2"))
	if err != nil {
		t.Fatal(err)
	}
	data := []float64{0.5, -0.25, 0.75, 0.1}
	padded := make([]float64, c.Slots())
	copy(padded, data)
	masked, err := c.Mask(key, []byte("n"), 0, padded)
	if err != nil {
		t.Fatal(err)
	}
	encKey, err := c.EncryptKey(ev, pk, key)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c.TranscipherAffineWith(nil, ev, rlk, encKey, []byte("n"), 0, masked, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Additive encrypted computation at the bottom level: ct + ct − bias
	// (a multiplicative step would exceed the small base modulus of this
	// test's 24-bit chain; the securenlp example runs one with room).
	outCt := ctx.NewCiphertext(ct.Level)
	if err := ev.AddInto(ct, ct, outCt); err != nil {
		t.Fatal(err)
	}
	negBias := make([]float64, c.Slots())
	for i := range negBias {
		negBias[i] = -0.1
	}
	biasPt, err := enc.EncodeRealAtLevel(negBias, outCt.Scale, outCt.Level)
	if err != nil {
		t.Fatal(err)
	}
	trivial := ctx.NewCiphertext(biasPt.Level) // (−bias, 0)
	trivial.C0, trivial.Scale = biasPt.Value, biasPt.Scale
	if err := ev.AddInto(outCt, trivial, outCt); err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReal(ev.Decrypt(sk, outCt))
	for i, d := range data {
		want := 2*d - 0.1
		if math.Abs(got[i]-want) > 0.03 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
}

// TestScratchReuseMatchesAllocating drives the serving hot path: one
// Scratch reused across several blocks must produce bit-identical
// ciphertexts to a fresh scratch per call, including blocks that
// cover only a prefix of the slots (stale staging data must not leak).
func TestScratchReuseMatchesAllocating(t *testing.T) {
	c, ctx := testCipher(t)
	kg := ckks.NewKeyGenerator(ctx, 21)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	enc := ckks.NewEncoder(ctx)

	key, err := c.DeriveKey([]byte("scratch-key"))
	if err != nil {
		t.Fatal(err)
	}
	evA := ckks.NewEvaluator(ctx, 22)
	encKey, err := c.EncryptKey(evA, pk, key)
	if err != nil {
		t.Fatal(err)
	}
	evB := ckks.NewEvaluator(ctx, 23)

	weights := []float64{0.5, -1, 0.25, 2}
	bias := []float64{0.1, 0, -0.1, 0.2}
	nonce := []byte("scratch-nonce")
	sc := c.NewScratch()
	rng := rand.New(rand.NewSource(24))
	for block := uint32(0); block < 3; block++ {
		// Vary the covered prefix so scratch reuse is exercised on
		// partially filled blocks too.
		n := c.Slots() >> block
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64()*2 - 1
		}
		masked, err := c.Mask(key, nonce, block, data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.TranscipherAffineWith(nil, evA, rlk, encKey, nonce, block, masked, weights, bias)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.TranscipherAffineWith(sc, evB, rlk, encKey, nonce, block, masked, weights, bias)
		if err != nil {
			t.Fatal(err)
		}
		if got.Level != want.Level || got.Scale != want.Scale {
			t.Fatalf("block %d: level/scale mismatch", block)
		}
		for i := range want.C0 {
			for j := range want.C0[i] {
				if got.C0[i][j] != want.C0[i][j] || got.C1[i][j] != want.C1[i][j] {
					t.Fatalf("block %d: ciphertext differs at limb %d coeff %d", block, i, j)
				}
			}
		}
		_ = enc
	}
	_ = sk
}

func TestScratchSizeMismatchRejected(t *testing.T) {
	c, ctx := testCipher(t)
	other, err := New(ctx, 4) // different keyLen → differently sized scratch
	if err != nil {
		t.Fatal(err)
	}
	if err := c.coeffBlockInto([]byte("n"), 0, other.NewScratch()); err == nil {
		t.Error("foreign scratch accepted")
	}
}

func BenchmarkHomomorphicKeystream(b *testing.B) {
	c, ctx := testCipher(b)
	kg := ckks.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := ckks.NewEvaluator(ctx, 2)
	key, _ := c.DeriveKey([]byte("k"))
	encKey, err := c.EncryptKey(ev, pk, key)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HomomorphicKeystream(ev, rlk, encKey, []byte("n"), uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	_ = sk
}

// BenchmarkMask times the client's masking of one full λ-128k block.
func BenchmarkMask(b *testing.B) {
	c := servedShape(b, 12)
	key, _ := c.DeriveKey([]byte("k"))
	data := make([]float64, c.Slots())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Mask(key, []byte("n"), uint32(i), data); err != nil {
			b.Fatal(err)
		}
	}
}
