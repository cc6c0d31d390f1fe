package chacha20

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRFC8439Block checks the block function against RFC 8439 §2.3.2.
func TestRFC8439Block(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce := mustHex(t, "000000090000004a00000000")
	c, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]byte, 64)
	c.Keystream(ks)
	want := mustHex(t,
		"10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"+
			"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	if !bytes.Equal(ks, want) {
		t.Errorf("block mismatch\n got %x\nwant %x", ks, want)
	}
}

// TestRFC8439Encryption checks the full encryption vector of RFC 8439 §2.4.2.
func TestRFC8439Encryption(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce := mustHex(t, "000000000000004a00000000")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.")
	ct, err := Seal(key, nonce, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	want := mustHex(t,
		"6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"+
			"f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"+
			"07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"+
			"5af90bbf74a35be6b40b8eedf2785e42874d")
	if !bytes.Equal(ct, want) {
		t.Errorf("ciphertext mismatch\n got %x\nwant %x", ct, want)
	}
	// Round trip.
	pt, err := Open(key, nonce, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, plaintext) {
		t.Error("Open did not invert Seal")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(make([]byte, 31), make([]byte, NonceSize), 0); err == nil {
		t.Error("short key accepted")
	}
	if _, err := New(make([]byte, KeySize), make([]byte, 11), 0); err == nil {
		t.Error("short nonce accepted")
	}
}

func TestStreamingMatchesOneShot(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	for i := range key {
		key[i] = byte(i)
	}
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	oneShot, err := Seal(key, nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Same encryption in odd-sized chunks (crossing block boundaries).
	c, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make([]byte, len(msg))
	for _, chunk := range []struct{ lo, hi int }{{0, 1}, {1, 63}, {63, 64}, {64, 129}, {129, 300}} {
		c.XORKeyStream(streamed[chunk.lo:chunk.hi], msg[chunk.lo:chunk.hi])
	}
	if !bytes.Equal(streamed, oneShot) {
		t.Error("chunked keystream diverges from one-shot")
	}
	// Raw keystream in the same chunks, interleaved with XORKeyStream.
	if c, err = New(key, nonce, 1); err != nil {
		t.Fatal(err)
	}
	for i, chunk := range []struct{ lo, hi int }{{0, 1}, {1, 63}, {63, 64}, {64, 129}, {129, 200}, {200, 300}} {
		if i%2 == 0 {
			c.Keystream(streamed[chunk.lo:chunk.hi])
		} else {
			c.XORKeyStream(streamed[chunk.lo:chunk.hi], make([]byte, chunk.hi-chunk.lo))
		}
	}
	for i := range streamed {
		streamed[i] ^= msg[i]
	}
	if !bytes.Equal(streamed, oneShot) {
		t.Error("chunked raw keystream diverges from one-shot")
	}
}

func TestCounterAdvances(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	c, err := New(key, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1 := make([]byte, BlockSize)
	b2 := make([]byte, BlockSize)
	c.Keystream(b1)
	c.Keystream(b2)
	if bytes.Equal(b1, b2) {
		t.Error("consecutive blocks identical: counter not advancing")
	}
}

func TestDifferentCountersDiffer(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	c0, err := New(key, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(key, nonce, 1)
	if err != nil {
		t.Fatal(err)
	}
	b0 := make([]byte, BlockSize)
	b1 := make([]byte, BlockSize)
	c0.Keystream(b0) // counter 0
	c1.Keystream(b1) // counter 1
	if bytes.Equal(b0, b1) {
		t.Error("blocks at different counters identical")
	}
	// c0's next block (counter 1) must equal c1's first.
	c0.Keystream(b0)
	if !bytes.Equal(b0, b1) {
		t.Error("keystream not continuous across counters")
	}
}

func TestXORKeyStreamShortDstPanics(t *testing.T) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	c, err := New(key, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("short dst did not panic")
		}
	}()
	c.XORKeyStream(make([]byte, 1), make([]byte, 2))
}

// Property: Seal then Open is the identity for random keys and messages.
func TestSealOpenRoundTrip(t *testing.T) {
	f := func(keySeed byte, msg []byte) bool {
		key := make([]byte, KeySize)
		for i := range key {
			key[i] = keySeed ^ byte(i*13)
		}
		nonce := make([]byte, NonceSize)
		ct, err := Seal(key, nonce, msg)
		if err != nil {
			return false
		}
		pt, err := Open(key, nonce, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: keystream looks balanced (crude randomness sanity check).
func TestKeystreamBitBalance(t *testing.T) {
	key := make([]byte, KeySize)
	key[0] = 1
	nonce := make([]byte, NonceSize)
	c, err := New(key, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]byte, 1<<16)
	c.Keystream(ks)
	ones := 0
	for _, b := range ks {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				ones++
			}
		}
	}
	total := len(ks) * 8
	frac := float64(ones) / float64(total)
	if frac < 0.49 || frac > 0.51 {
		t.Errorf("keystream bit balance %v, want ≈ 0.5", frac)
	}
}

func BenchmarkKeystream(b *testing.B) {
	c, _ := New(make([]byte, KeySize), make([]byte, NonceSize), 0)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Keystream(buf)
	}
}

func BenchmarkXORKeyStream(b *testing.B) {
	key := make([]byte, KeySize)
	nonce := make([]byte, NonceSize)
	c, _ := New(key, nonce, 0)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.XORKeyStream(buf, buf)
	}
}

// TestHChaCha20Vector checks the subkey derivation against the test
// vector of draft-irtf-cfrg-xchacha §2.2.1.
func TestHChaCha20Vector(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce := mustHex(t, "000000090000004a0000000031415927")
	got, err := HChaCha20(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, "82413b4227b27bfed30e42508a877d73a0f9e4d58a74a853c12ec41326d3ecdc")
	if !bytes.Equal(got[:], want) {
		t.Errorf("subkey\n got %x\nwant %x", got, want)
	}
	if _, err := HChaCha20(key, nonce[:12]); err == nil {
		t.Error("12-byte HChaCha20 nonce accepted")
	}
	if _, err := HChaCha20(key[:16], nonce); err == nil {
		t.Error("16-byte key accepted")
	}
}

// TestKeystreamAtMatchesStream draws blocks out of order and checks each
// against the running keystream, which it must not disturb.
func TestKeystreamAtMatchesStream(t *testing.T) {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(7 * i)
	}
	nonce := []byte("twelve bytes")
	c, err := New(key, nonce, 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]byte, 8*BlockSize)
	c.Keystream(stream[:BlockSize/2])
	var blk [BlockSize]byte
	c.KeystreamAt(5, &blk)
	c.Keystream(stream[BlockSize/2:])
	if !bytes.Equal(blk[:], stream[5*BlockSize:6*BlockSize]) {
		t.Error("block 5 differs from the stream")
	}
	for _, ctr := range []uint32{7, 0, 3} {
		c.KeystreamAt(ctr, &blk)
		if !bytes.Equal(blk[:], stream[ctr*BlockSize:(ctr+1)*BlockSize]) {
			t.Errorf("block %d differs from the stream", ctr)
		}
	}
}
