package transcipher

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

// Scale exposes the encoding scale (the top rescaling prime).
func (c *Cipher) Scale() float64 { return c.scale() }
