package transcipher

// Test-only access for the external kernel tests, which import
// he/profile (itself an importer of this package) and so cannot live in
// package transcipher.

// CoeffBlock exposes the public per-block coefficient matrices A, B, C.
func (c *Cipher) CoeffBlock(nonce []byte, block uint32) (a, b, cc [][]float64, err error) {
	return c.coeffBlock(nonce, block)
}

// Scale exposes the encoding scale (the top rescaling prime).
func (c *Cipher) Scale() float64 { return c.scale() }
