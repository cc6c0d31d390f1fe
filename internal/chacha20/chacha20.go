// Package chacha20 implements the ChaCha20 stream cipher of RFC 8439 from
// scratch (stdlib only). The QuHE system uses it as the client-side
// symmetric cipher: data is encrypted under a QKD-distributed key before
// upload (§III-A.2), and the cipher also seeds the HE-friendly transciphering
// keystream (internal/transcipher).
package chacha20

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	// KeySize is the ChaCha20 key length in bytes.
	KeySize = 32
	// NonceSize is the RFC 8439 nonce length in bytes.
	NonceSize = 12
	// BlockSize is the keystream block length in bytes.
	BlockSize = 64
)

// sigma is the "expand 32-byte k" constant.
var sigma = [4]uint32{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574}

// Cipher is a ChaCha20 instance bound to one (key, nonce) pair. It
// maintains a running block counter, so successive XORKeyStream calls
// continue the keystream. A (key, nonce) pair must never be reused across
// different messages.
type Cipher struct {
	state   [16]uint32 // initial state with current counter at state[12]
	buf     [BlockSize]byte
	bufUsed int // bytes of buf already consumed (BlockSize = empty)
}

// New creates a Cipher with the given 32-byte key, 12-byte nonce and
// initial block counter (RFC 8439 uses counter 1 for AEAD payloads and 0
// for plain keystream use; either is valid here).
func New(key, nonce []byte, counter uint32) (*Cipher, error) {
	c := new(Cipher)
	if err := c.Reset(key, nonce, counter); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebinds c to a (key, nonce, counter) triple exactly as New would,
// discarding any buffered keystream, so a per-worker Cipher can be reused
// across messages without allocating.
func (c *Cipher) Reset(key, nonce []byte, counter uint32) error {
	if len(key) != KeySize {
		return fmt.Errorf("chacha20: key must be %d bytes, got %d", KeySize, len(key))
	}
	if len(nonce) != NonceSize {
		return fmt.Errorf("chacha20: nonce must be %d bytes, got %d", NonceSize, len(nonce))
	}
	c.bufUsed = BlockSize
	copy(c.state[:4], sigma[:])
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	c.state[12] = counter
	for i := 0; i < 3; i++ {
		c.state[13+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	return nil
}

// quarterRound is the ChaCha quarter round on four state words.
func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 16)
	c += d
	b ^= c
	b = bits.RotateLeft32(b, 12)
	a += b
	d ^= a
	d = bits.RotateLeft32(d, 8)
	c += d
	b ^= c
	b = bits.RotateLeft32(b, 7)
	return a, b, c, d
}

// rounds applies ChaCha20's twenty rounds to x in place.
func rounds(x *[16]uint32) {
	for round := 0; round < 10; round++ {
		// Column rounds.
		x[0], x[4], x[8], x[12] = quarterRound(x[0], x[4], x[8], x[12])
		x[1], x[5], x[9], x[13] = quarterRound(x[1], x[5], x[9], x[13])
		x[2], x[6], x[10], x[14] = quarterRound(x[2], x[6], x[10], x[14])
		x[3], x[7], x[11], x[15] = quarterRound(x[3], x[7], x[11], x[15])
		// Diagonal rounds.
		x[0], x[5], x[10], x[15] = quarterRound(x[0], x[5], x[10], x[15])
		x[1], x[6], x[11], x[12] = quarterRound(x[1], x[6], x[11], x[12])
		x[2], x[7], x[8], x[13] = quarterRound(x[2], x[7], x[8], x[13])
		x[3], x[4], x[9], x[14] = quarterRound(x[3], x[4], x[9], x[14])
	}
}

// KeystreamAt writes the keystream block at the given block counter into
// dst. It reads only the bound key and nonce: the running counter and any
// buffered keystream are untouched, so blocks may be drawn in any order.
func (c *Cipher) KeystreamAt(counter uint32, dst *[BlockSize]byte) {
	in := c.state
	in[12] = counter
	x := in
	rounds(&x)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], x[i]+in[i])
	}
}

// block computes the keystream block for the current counter into c.buf.
func (c *Cipher) block() {
	c.KeystreamAt(c.state[12], &c.buf)
	c.state[12]++ // advance the block counter
	c.bufUsed = 0
}

// HNonceSize is the HChaCha20 nonce length in bytes.
const HNonceSize = 16

// HChaCha20 derives a 32-byte subkey from a 32-byte key and a 16-byte
// nonce: the ChaCha20 rounds over (constants, key, nonce), keeping state
// words 0–3 and 12–15 without the final addition. It is the subkey step of
// XChaCha20 (draft-irtf-cfrg-xchacha §2.2), which turns one key into a
// family of independent stream keys indexed by the nonce.
func HChaCha20(key, nonce []byte) ([KeySize]byte, error) {
	var out [KeySize]byte
	if len(key) != KeySize {
		return out, fmt.Errorf("chacha20: key must be %d bytes, got %d", KeySize, len(key))
	}
	if len(nonce) != HNonceSize {
		return out, fmt.Errorf("chacha20: HChaCha20 nonce must be %d bytes, got %d", HNonceSize, len(nonce))
	}
	var x [16]uint32
	copy(x[:4], sigma[:])
	for i := 0; i < 8; i++ {
		x[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	for i := 0; i < 4; i++ {
		x[12+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	rounds(&x)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], x[i])
		binary.LittleEndian.PutUint32(out[16+4*i:], x[12+i])
	}
	return out, nil
}

// XORKeyStream XORs src with the keystream into dst, which must be at least
// as long as src and may alias it. It panics on a short dst (programmer
// error, matching crypto/cipher.Stream semantics).
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("chacha20: output smaller than input")
	}
	for len(src) > 0 {
		if c.bufUsed == BlockSize {
			c.block()
		}
		n := min(len(src), BlockSize-c.bufUsed)
		for i := 0; i < n; i++ {
			dst[i] = src[i] ^ c.buf[c.bufUsed+i]
		}
		c.bufUsed += n
		src = src[n:]
		dst = dst[n:]
	}
}

// Keystream fills dst with raw keystream bytes (i.e. the encryption of an
// all-zero message), continuing the stream exactly as XORKeyStream would.
// Whole blocks are written straight into dst.
func (c *Cipher) Keystream(dst []byte) {
	for len(dst) > 0 && c.bufUsed < BlockSize {
		n := copy(dst, c.buf[c.bufUsed:])
		c.bufUsed += n
		dst = dst[n:]
	}
	for ; len(dst) >= BlockSize; dst = dst[BlockSize:] {
		c.KeystreamAt(c.state[12], (*[BlockSize]byte)(dst))
		c.state[12]++
	}
	if len(dst) > 0 {
		c.block()
		c.bufUsed = copy(dst, c.buf[:])
	}
}

// Seal encrypts the message with a fresh single-shot cipher; it is a
// convenience for one-message-per-nonce usage.
func Seal(key, nonce, msg []byte) ([]byte, error) {
	c, err := New(key, nonce, 1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(msg))
	c.XORKeyStream(out, msg)
	return out, nil
}

// Open decrypts a Seal output (ChaCha20 is an involution under the same
// key/nonce/counter).
func Open(key, nonce, ct []byte) ([]byte, error) {
	return Seal(key, nonce, ct)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
