package transcipher

import "quhe/internal/he/ckks"

// Test-only access for the external kernel tests, which import
// he/profile (itself an importer of this package) and so cannot live in
// package transcipher.

// CoeffBlock materializes the public per-block coefficient matrices A, B,
// C into fresh buffers: the server's rows, kept as the oracle the
// client's streamed keystream (MaskInto) must match bit for bit.
func (c *Cipher) CoeffBlock(nonce []byte, block uint32) (a, b, cc [][]float64, err error) {
	sc := c.NewScratch()
	if err := c.coeffBlockInto(nonce, block, sc); err != nil {
		return nil, nil, nil, err
	}
	return sc.a, sc.b, sc.cc, nil
}

// HomomorphicKeystream evaluates the keystream block on the encrypted key,
// Enc(ks) at level top−2: the server-side core of transciphering, kept as
// the oracle the fused path's keystream half must match.
func (c *Cipher) HomomorphicKeystream(ev *ckks.Evaluator, rlk *ckks.RelinKey, encKey []*ckks.Ciphertext, nonce []byte, block uint32) (*ckks.Ciphertext, error) {
	sc := c.NewScratch()
	if err := c.coeffBlockInto(nonce, block, sc); err != nil {
		return nil, err
	}
	return c.evalKeystream(sc, ev, rlk, encKey)
}

// Scale exposes the encoding scale (the top rescaling prime).
func (c *Cipher) Scale() float64 { return c.scale() }

// Keystream computes the plaintext keystream block ks = A·k + (B·k)⊙(C·k):
// the mask of an all-zero block.
func (c *Cipher) Keystream(key []float64, nonce []byte, block uint32) ([]float64, error) {
	ks := make([]float64, c.Slots())
	if err := c.MaskInto(ks, key, nonce, block, nil); err != nil {
		return nil, err
	}
	return ks, nil
}
