// Package transcipher implements the transciphering bridge of the QuHE
// system (§III-A.4): the client encrypts data with a cheap symmetric
// cipher; the server — holding only an HE encryption of the symmetric key —
// homomorphically evaluates the cipher's decryption and obtains a CKKS
// ciphertext of the data, without ever seeing the plaintext.
//
// The paper cites the CKKS transciphering framework of Cho et al. [17]
// applied to ChaCha20. Evaluating a boolean cipher like ChaCha20 under CKKS
// is a multi-year engineering artifact, so this package substitutes the
// HE-friendly construction that modern transciphering actually uses
// (Rubato/HERA-style): an additive stream cipher over the CKKS plaintext
// space whose keystream is a low-degree polynomial of the key,
//
//	ks = A·k + (B·k) ⊙ (C·k),
//
// with public per-block coefficient vectors A, B, C expanded from ChaCha20
// (so the symmetric side really is keyed by the QKD key). The client adds
// ks to its data slot-wise (cheap); the server evaluates the same
// polynomial on slot-replicated encryptions of the key coordinates —
// plaintext multiplications plus one ciphertext multiplication, no
// rotations — and subtracts. The substitution preserves exactly the
// behaviour the paper's cost hook f_eval(λ) (Eq. 29) models: the server
// pays HE work per transciphered block, the client pays symmetric work.
//
// # Coefficient streams
//
// Each block's public coefficients come from a ChaCha20 stream of its
// own: the key is the HChaCha20 subkey of a public expansion key and
// nonce‖block, and the stream starts at counter 0. Blocks and nonces thus
// draw disjoint streams — no block's coefficients are another's read at
// an offset, and the 32-bit block index never wraps a counter. The stream
// holds A's keyLen rows of slots int16 values, then B's, then C's. Both
// ends read the same stream in different shapes. The client streams it:
// Mask expands one 64-byte ChaCha20 block (32 slots of one row) at a time
// and folds it into A·k, B·k and C·k for those slots on the stack, so it
// allocates only its output. The server materializes it once per block
// into its worker's Scratch, because the fused kernel encodes each row as
// a plaintext. Tests hold the two to the same bits.
//
// # One complex form for the quadratic term
//
// CKKS slots are complex, and the server needs only the real parts of a
// block. With x = B·k and y = C·k, the server packs key row j as
//
//	z_j = (B_j + C_j)/2 + i·(B_j − C_j)/2,
//
// so z = Σ_j z_j·k_j = (x+y)/2 + i·(x−y)/2 and, slot by slot,
//
//	Re(z²) = ((x+y)² − (x−y)²)/4 = x⊙y,  Im(z²) = (x² − y²)/2.
//
// The server's work per block is therefore two linear forms
// Σ_j pt_j·Enc(k_j) — the complex z at the top level and the real A·k one
// level down — and one squaring (ckks.Evaluator.MulRelinInto with both
// operands the same ciphertext: two operand transforms per limb instead
// of four), where the textbook evaluation runs three real forms and a
// general product: 102 limb transforms per λ-128k block (L = 4 limbs:
// 71 forward, 31 inverse) instead of 148, 17 encodes instead of 25. A
// served ciphertext holds the data in the real parts of its slots and the
// key-dependent Im(z²) in the imaginary parts (|Im| ≤ 0.12 measured on
// the built-in profiles, far inside the modulus headroom). Every served
// op — the slot-wise affine model, the real-diagonal matvec — is linear
// over C with real coefficients, so it keeps the two apart, and the
// client decodes real parts only. The client's keystream is the same real function
// A·k + (B·k)⊙(C·k); nothing on the wire changes.
//
// # Evaluation form
//
// Both linear forms run over the same keyLen key ciphertexts, which
// change only at Setup and Rekey. InstallKey therefore converts an
// uploaded key once, in place, to ckks evaluation form (NTT domain,
// Montgomery form — see package ckks), validating it on the way in, and
// each linear form runs as one fused NTT-domain kernel
// (ckks.Evaluator.LinearFormInto) that transforms only the plaintexts.
// The server's Setup/Rekey handlers are the converter —
// a session holds exactly one form of its key, the installed one — and
// evalKeystream is the only reader: an installed key is useless to every
// other ckks operation, which refuse it typed. Callers that hold a key
// still in coefficient form (one-shot use, benchmarks replaying a block)
// pass it as is; it is converted into the Scratch for that call, at
// 2·keyLen extra transforms per limb, and the result is bit-identical.
//
// The toy cipher's concrete security is NOT argued here; it is a
// structural stand-in.
package transcipher

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"quhe/internal/chacha20"
	"quhe/internal/he/ckks"
)

// Cipher binds a CKKS context to the transciphering construction.
// It is immutable and safe for concurrent use.
type Cipher struct {
	ctx     *ckks.Context
	encoder *ckks.Encoder
	keyLen  int
}

// Levels is the number of modulus levels the keystream evaluation
// consumes — one for the linear layer, one for the quadratic — so a
// transciphered block leaves at level top−Levels.
const Levels = 2

// New builds a transciphering cipher. The context needs depth ≥ Levels,
// and the encoding scale must equal the top rescaling prime so the linear
// and quadratic paths land on identical scales.
func New(ctx *ckks.Context, keyLen int) (*Cipher, error) {
	if ctx.Params.Depth < Levels {
		return nil, fmt.Errorf("transcipher: need CKKS depth ≥ %d, got %d", Levels, ctx.Params.Depth)
	}
	if keyLen < 2 || keyLen > 64 {
		return nil, fmt.Errorf("transcipher: keyLen %d outside [2, 64]", keyLen)
	}
	return &Cipher{ctx: ctx, encoder: ckks.NewEncoder(ctx), keyLen: keyLen}, nil
}

// scale returns the encoding scale: exactly the top rescaling prime.
func (c *Cipher) scale() float64 { return float64(c.ctx.Primes[c.ctx.MaxLevel()]) }

// Slots returns the block size in plaintext slots.
func (c *Cipher) Slots() int { return c.ctx.Params.Slots() }

// DeriveKey maps raw QKD key material to the cipher's key coordinates in
// [−1, 1] by expanding it through ChaCha20.
func (c *Cipher) DeriveKey(qkdKey []byte) ([]float64, error) {
	if len(qkdKey) == 0 {
		return nil, errors.New("transcipher: empty key material")
	}
	seed := make([]byte, chacha20.KeySize)
	copy(seed, qkdKey) // truncate/zero-pad to 32 bytes
	stream, err := chacha20.New(seed, make([]byte, chacha20.NonceSize), 0)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 2*c.keyLen)
	stream.Keystream(raw)
	key := make([]float64, c.keyLen)
	for j := range key {
		v := int16(binary.LittleEndian.Uint16(raw[2*j:]))
		key[j] = float64(v) / 32768
	}
	return key, nil
}

// publicExpandKey keys the ChaCha20 expansion of the public per-block
// coefficients: a public constant, 32 bytes.
var publicExpandKey = []byte("quhe-transcipher-public-expand-1")

// tile is the slot count one 64-byte ChaCha20 block expands: 32 int16
// coefficients of one row.
const tile = chacha20.BlockSize / 2

// Scratch holds everything one transciphering evaluation needs per block
// except the ciphertext it returns: the ChaCha20 state and raw expansion,
// the three coefficient matrices, the plaintext staging vector, the
// encoder's FFT space and integer coefficients, and the accumulators of
// the homomorphic evaluation. A serving worker reuses one Scratch across
// every block it processes, so a block's steady-state allocations are its
// result and the limb fan-outs' closures. Not safe for concurrent use —
// pair one Scratch with one evaluator (see serve.Worker).
type Scratch struct {
	stream    chacha20.Cipher
	raw       []byte
	a, b, cc  [][]float64
	plain     []float64
	keyLen    int
	slotCount int

	// Homomorphic working set. ctx pins the context the buffers were
	// sized for.
	ctx    *ckks.Context
	work   []complex128
	coeffs [][]int64        // one row per key coordinate; row 0 doubles for the masked block
	u, v   *ckks.Ciphertext // top-level accumulators: z then z², and A·k
	// conv receives the evaluation form of a key that arrives in
	// coefficient form; allocated on first such key, never for a server
	// whose sessions hold installed keys.
	conv []*ckks.Ciphertext
}

// NewScratch allocates per-worker transciphering buffers for this cipher.
func (c *Cipher) NewScratch() *Scratch {
	slots, n, top := c.Slots(), c.ctx.Params.N(), c.ctx.MaxLevel()
	rows := func() [][]float64 {
		m := make([][]float64, c.keyLen)
		for j := range m {
			m[j] = make([]float64, slots)
		}
		return m
	}
	sc := &Scratch{
		raw:       make([]byte, 3*c.keyLen*slots*2),
		a:         rows(),
		b:         rows(),
		cc:        rows(),
		plain:     make([]float64, slots),
		keyLen:    c.keyLen,
		slotCount: slots,
		ctx:       c.ctx,
		work:      make([]complex128, n),
		coeffs:    make([][]int64, c.keyLen),
		u:         c.ctx.NewCiphertext(top),
		v:         c.ctx.NewCiphertext(top),
	}
	for j := range sc.coeffs {
		sc.coeffs[j] = make([]int64, n)
	}
	return sc
}

// blockStream binds st to one block's coefficient stream: ChaCha20 under
// the HChaCha20 subkey of (publicExpandKey, nonce‖block), from counter 0.
// Every (nonce, block) pair thus draws its own stream, and no block's
// expansion overlaps another's at any offset. The nonce is truncated or
// zero-padded to 12 bytes.
func blockStream(st *chacha20.Cipher, nonce []byte, block uint32) error {
	var in [chacha20.HNonceSize]byte
	copy(in[:chacha20.NonceSize], nonce)
	binary.LittleEndian.PutUint32(in[chacha20.NonceSize:], block)
	sub, err := chacha20.HChaCha20(publicExpandKey, in[:])
	if err != nil {
		return err
	}
	var zero [chacha20.NonceSize]byte
	return st.Reset(sub[:], zero[:], 0)
}

// coeffBlockInto materializes the public per-block coefficient vectors
// A, B, C (each keyLen × slots) into the scratch buffers — the server's
// form, since the fused kernel encodes each row as a plaintext. The block
// stream holds A's rows, then B's, then C's, each row slots int16 values;
// MaskInto reads the same stream tile by tile.
func (c *Cipher) coeffBlockInto(nonce []byte, block uint32, sc *Scratch) error {
	if sc.keyLen != c.keyLen || sc.slotCount != c.Slots() {
		return fmt.Errorf("transcipher: scratch sized %d×%d, cipher needs %d×%d",
			sc.keyLen, sc.slotCount, c.keyLen, c.Slots())
	}
	if err := blockStream(&sc.stream, nonce, block); err != nil {
		return err
	}
	slots := c.Slots()
	sc.stream.Keystream(sc.raw)
	// Entries are normalized by keyLen so |A·k|, |B·k|, |C·k| ≤ 1: the
	// homomorphic evaluation then stays well inside the modulus headroom.
	norm := 32768 * float64(c.keyLen)
	fill := func(m [][]float64, off int) {
		for j := 0; j < c.keyLen; j++ {
			for s := 0; s < slots; s++ {
				v := int16(binary.LittleEndian.Uint16(sc.raw[off+2*(j*slots+s):]))
				m[j][s] = float64(v) / norm
			}
		}
	}
	stride := c.keyLen * slots * 2
	fill(sc.a, 0)
	fill(sc.b, stride)
	fill(sc.cc, 2*stride)
	return nil
}

// MaskInto writes the masked block into dst: dst[s] = data[s] + ks[s] for
// every slot s < len(dst), with data zero past its end, so the slots data
// does not cover carry the bare keystream. dst may alias data. It is the
// client's form of the keystream: the public coefficients are expanded
// one ChaCha20 block (32 slots of one row) at a time and folded into
// A·k, B·k and C·k for those slots on the stack, so it allocates nothing,
// and the keystream is bit-identical to the server's materialized rows.
func (c *Cipher) MaskInto(dst, key []float64, nonce []byte, block uint32, data []float64) error {
	if len(key) != c.keyLen {
		return fmt.Errorf("transcipher: key has %d coordinates, want %d", len(key), c.keyLen)
	}
	slots := c.Slots()
	if len(dst) > slots || len(data) > len(dst) {
		return fmt.Errorf("transcipher: %d values into %d outputs, block holds %d slots", len(data), len(dst), slots)
	}
	var st chacha20.Cipher
	if err := blockStream(&st, nonce, block); err != nil {
		return err
	}
	norm := 32768 * float64(c.keyLen) // as coeffBlockInto
	w := min(tile, slots)             // slots < 32 packs several rows in one ChaCha20 block
	var raw [chacha20.BlockSize]byte
	for s0 := 0; s0 < len(dst); s0 += w {
		var acc [3][tile]float64 // A·k, B·k, C·k for slots s0..s0+w−1
		for m := range acc {
			for j, kj := range key {
				e := (m*c.keyLen+j)*slots + s0 // coefficient index in the block stream
				st.KeystreamAt(uint32(e/tile), &raw)
				row := raw[2*(e%tile):]
				for i := 0; i < w; i++ {
					v := int16(binary.LittleEndian.Uint16(row[2*i:]))
					acc[m][i] += float64(v) / norm * kj
				}
			}
		}
		for i, s := 0, s0; i < w && s < len(dst); i, s = i+1, s+1 {
			ks := acc[0][i] + acc[1][i]*acc[2][i]
			if s < len(data) {
				dst[s] = data[s] + ks
			} else {
				dst[s] = ks
			}
		}
	}
	return nil
}

// Mask encrypts data symmetrically: out = data + ks (slot-wise), one slot
// per value. The client sends the result in the clear alongside the
// HE-encrypted key.
func (c *Cipher) Mask(key []float64, nonce []byte, block uint32, data []float64) ([]float64, error) {
	if len(data) > c.Slots() {
		return nil, fmt.Errorf("transcipher: %d values exceed %d slots", len(data), c.Slots())
	}
	out := make([]float64, len(data))
	if err := c.MaskInto(out, key, nonce, block, data); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptKey produces the HE encryption of the key the client uploads:
// one ciphertext per key coordinate, slot-replicated (avoiding rotations).
// A slot vector that holds k in every slot is the constant polynomial k,
// so each coordinate is encoded as the constant round(k·Δ) directly — the
// value the FFT encoding rounds to, with no FFT — into one plaintext
// reused across coordinates.
func (c *Cipher) EncryptKey(ev *ckks.Evaluator, pk *ckks.PublicKey, key []float64) ([]*ckks.Ciphertext, error) {
	if len(key) != c.keyLen {
		return nil, fmt.Errorf("transcipher: key has %d coordinates, want %d", len(key), c.keyLen)
	}
	top := c.ctx.MaxLevel()
	pt := &ckks.Plaintext{Value: c.ctx.Tower.NewPoly(top + 1), Scale: c.scale(), Level: top}
	out := make([]*ckks.Ciphertext, c.keyLen)
	for j, kj := range key {
		k0 := int64(math.Round(kj * c.scale()))
		for i, limb := range pt.Value {
			limb[0] = c.ctx.Tower.Qi[i].FromInt64(k0)
		}
		out[j] = ev.Encrypt(pk, pt)
	}
	return out, nil
}

// InstallKey prepares an uploaded key for serving: every ciphertext is
// validated against the cipher's context (top level, one limb of N
// coefficients per level, residues below their primes — the lazy-reduction
// kernels assume all of it) and converted, in place, to the evaluation
// form the keystream kernel reads. A server calls it once per Setup and
// Rekey, before the key reaches a session; from then on every block
// skips the conversion. The error wraps ckks.ErrMalformed when the
// material does not fit; a failed install may leave some ciphertexts
// converted, so the caller drops the whole key.
func (c *Cipher) InstallKey(encKey []*ckks.Ciphertext) error {
	if len(encKey) != c.keyLen {
		return fmt.Errorf("%w: %d key ciphertexts, want %d", ckks.ErrMalformed, len(encKey), c.keyLen)
	}
	for j, ct := range encKey {
		if err := c.evalFormInto(ct, ct); err != nil {
			return fmt.Errorf("transcipher: key coordinate %d: %w", j, err)
		}
	}
	return nil
}

// evalFormInto converts one key ciphertext, insisting on the level
// EncryptKey produces.
func (c *Cipher) evalFormInto(ct, out *ckks.Ciphertext) error {
	if ct != nil && ct.Level != c.ctx.MaxLevel() {
		return fmt.Errorf("%w: key ciphertext at level %d, want %d", ckks.ErrMalformed, ct.Level, c.ctx.MaxLevel())
	}
	return c.ctx.EvalFormInto(ct, out)
}

// evalKeys returns the key in evaluation form: encKey itself when it was
// installed (InstallKey), otherwise a conversion into the scratch's own
// buffers that leaves the caller's ciphertexts untouched — the one-shot
// and replay path, which pays 2·keyLen extra transforms per limb per call.
func (c *Cipher) evalKeys(sc *Scratch, encKey []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
	if len(encKey) != c.keyLen {
		return nil, fmt.Errorf("transcipher: %d key ciphertexts, want %d", len(encKey), c.keyLen)
	}
	installed := true
	for _, ct := range encKey {
		installed = installed && ct != nil && ct.IsEvalForm()
	}
	if installed {
		return encKey, nil
	}
	if sc.conv == nil {
		sc.conv = make([]*ckks.Ciphertext, c.keyLen)
		for j := range sc.conv {
			sc.conv[j] = c.ctx.NewCiphertext(c.ctx.MaxLevel())
		}
	}
	for j, ct := range encKey {
		if err := c.evalFormInto(ct, sc.conv[j]); err != nil {
			return nil, fmt.Errorf("transcipher: key coordinate %d: %w", j, err)
		}
	}
	return sc.conv, nil
}

// evalKeystream evaluates A·k + (B·k)⊙(C·k) homomorphically for the public
// coefficient matrices in sc.a, sc.b, sc.cc, returning a freshly
// allocated ciphertext at level top−2 and scale Δ²/p whose real parts
// are the keystream (the imaginary parts hold (x²−y²)/2, see the package
// doc); everything else lives in the scratch. B and C are packed into the
// complex rows z_j in place, overwriting sc.b and sc.cc.
func (c *Cipher) evalKeystream(sc *Scratch, ev *ckks.Evaluator, rlk *ckks.RelinKey, encKey []*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if sc.ctx != c.ctx {
		return nil, errors.New("transcipher: scratch was not built by NewScratch for this context")
	}
	keys, err := c.evalKeys(sc, encKey)
	if err != nil {
		return nil, err
	}
	top := c.ctx.MaxLevel()

	// linearForm computes Rescale(Σ_j (re_j + i·im_j) ⊙ key_j) at level
	// `at` into acc: keyLen encodes into the scratch's integer rows, then
	// one fused NTT-domain kernel over the resident key. im nil is a real
	// form.
	linearForm := func(re, im [][]float64, at int, acc *ckks.Ciphertext) error {
		for j := range re {
			var imj []float64
			if im != nil {
				imj = im[j]
			}
			if err := c.encoder.EncodeRealCoeffs(re[j], imj, c.scale(), sc.work, sc.coeffs[j]); err != nil {
				return err
			}
		}
		if err := ev.LinearFormInto(keys, sc.coeffs, c.scale(), at, acc); err != nil {
			return err
		}
		return ev.RescaleInto(acc, acc)
	}

	// Quadratic part: z_j = (B_j + C_j)/2 + i·(B_j − C_j)/2 packs both
	// factors into one complex form, z = (x+y)/2 + i·(x−y)/2 for x = B·k,
	// y = C·k, and Re(z²) = x⊙y. One form at the top level, one squaring,
	// rescale: level top−1.
	for j := range sc.b {
		for s, bs := range sc.b[j] {
			cs := sc.cc[j][s]
			sc.b[j][s], sc.cc[j][s] = (bs+cs)/2, (bs-cs)/2
		}
	}
	quad := sc.u
	if err := linearForm(sc.b, sc.cc, top, quad); err != nil {
		return nil, err
	}
	if err := ev.MulRelinInto(quad, quad, rlk, quad); err != nil {
		return nil, err
	}
	if err := ev.RescaleInto(quad, quad); err != nil {
		return nil, err
	}
	// Linear part evaluated one level down — on the key's first `top`
	// limbs — so both paths end at level top−2 with identical scale Δ²/p
	// (Δ equals the top prime).
	lin := sc.v
	if err := linearForm(sc.a, nil, top-1, lin); err != nil {
		return nil, err
	}
	ks := c.ctx.NewCiphertext(top - Levels)
	if err := ev.AddInto(lin, quad, ks); err != nil {
		return nil, err
	}
	return ks, nil
}

// TranscipherAffineWith converts a masked (symmetrically encrypted) block
// into a CKKS ciphertext of the underlying data with a slot-wise affine
// model fused in, producing Enc(w⊙m + bias) at no extra homomorphic
// depth: the public keystream coefficients are scaled by w before
// evaluation (so the server computes Enc(w⊙ks)), while w⊙masked + bias
// is computed in plaintext —
//
//	Enc(w⊙m + bias) = Trivial(w⊙masked + bias) − Enc(w⊙ks).
//
// Like every served ciphertext, the result holds the data in the real
// parts of its slots (see the package doc). This is the linear-layer
// fusion used by RtF-style pipelines. |w| should stay ≤ ~2 to preserve
// the evaluation's modulus headroom. Weights and bias shorter than the
// block leave the remaining slots at w = 1, bias = 0, so nil weights and
// bias give plain transciphering, Enc(m) = Trivial(masked) − Enc(ks).
//
// sc holds the call's buffers — the serving hot path, where each pool
// worker reuses one Scratch across every block it processes; a nil
// scratch allocates a fresh one. encKey may be an installed key
// (InstallKey; what a session holds) or still in coefficient form, in
// which case it is converted into the scratch for this call and left
// untouched; the result is bit-identical either way.
func (c *Cipher) TranscipherAffineWith(sc *Scratch, ev *ckks.Evaluator, rlk *ckks.RelinKey, encKey []*ckks.Ciphertext, nonce []byte, block uint32, masked, weights, bias []float64) (*ckks.Ciphertext, error) {
	slots := c.Slots()
	if len(masked) > slots || len(weights) > slots || len(bias) > slots {
		return nil, fmt.Errorf("transcipher: affine inputs exceed %d slots", slots)
	}
	if sc == nil {
		sc = c.NewScratch()
	}
	if err := c.coeffBlockInto(nonce, block, sc); err != nil {
		return nil, err
	}
	wAt := func(s int) float64 {
		if s < len(weights) {
			return weights[s]
		}
		return 1
	}
	// Fold w into the linear layer and one factor of the quadratic.
	for j := 0; j < c.keyLen; j++ {
		for s, w := range weights {
			sc.a[j][s] *= w
			sc.b[j][s] *= w
		}
	}
	ks, err := c.evalKeystream(sc, ev, rlk, encKey)
	if err != nil {
		return nil, err
	}
	// Every slot is assigned (not just the covered prefix) so reused
	// scratch never leaks a previous block's staging values.
	for s := 0; s < slots; s++ {
		v := 0.0
		if s < len(masked) {
			v = wAt(s) * masked[s]
		}
		if s < len(bias) {
			v += bias[s]
		}
		sc.plain[s] = v
	}
	if err := c.encoder.EncodeRealCoeffs(sc.plain, nil, ks.Scale, sc.work, sc.coeffs[0]); err != nil {
		return nil, err
	}
	if err := ev.TrivialSubInto(sc.coeffs[0], ks.Scale, ks, ks); err != nil {
		return nil, err
	}
	return ks, nil
}
