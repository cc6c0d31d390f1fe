package ckks

// Wire codecs for CKKS objects: hand-rolled, length-prefixed binary
// layouts built on ring.Poly's raw little-endian coefficient runs, one
// run per RNS limb. They are the payload encoding of the edge protocol's
// frames (internal/edge). Conventions:
//
//   - AppendBinary appends the value's encoding to a caller-provided
//     buffer and returns the extended slice. It grows b at most once, up
//     front, to BinarySize() more bytes — the exact count it appends — so
//     a multi-megabyte key costs one allocation of its own size, and
//     with a buffer of sufficient capacity (e.g. one drawn from a frame
//     pool, or pre-sized by a container from the parts' BinarySize) it
//     performs zero allocations.
//   - DecodeFrom consumes one value from the front of a buffer and
//     returns the byte count consumed. Ciphertext and Plaintext decode
//     into their receiver, reusing existing limb storage when its
//     capacity suffices — a decode loop over a pre-sized receiver is
//     allocation-free in steady state.
//   - Key decoders back their coefficients with one slab cut into capped
//     limbs (one per gadget for a RelinKey or GaloisKey): key material is immutable once installed,
//     so no limb ever grows into its neighbour.
//   - Ownership: everything DecodeFrom produces is copied out of the
//     input buffer; callers may reuse the buffer immediately. The inverse
//     does not hold for receivers — a Ciphertext decoded into a pooled
//     receiver aliases that receiver's polynomials, so anyone retaining
//     the value past the receiver's reuse (session key material, caches)
//     must decode into a fresh receiver or Copy first.
//   - Errors are typed: ErrShortBuffer for truncation, ErrMalformed for
//     structurally invalid data (absurd degrees, level out of range).
//     Decoders never panic on hostile input and never allocate
//     attacker-chosen sizes beyond the structural caps below.
//
// Layouts: a ciphertext is the poly header (level | scale | degree)
// followed by C0's limbs 0..level then C1's limbs, each limb an 8·N-byte
// raw run — at level 0 this is bit-identical to the pre-RNS format. Keys
// carry their limb count explicitly since switching keys span the
// extended basis QP. A switching key (RelinKey, GaloisKey) ships half of
// itself: its gadget header names the basis — digit and limb counts,
// degree and every QP modulus — and is followed by the 32-byte seed and
// the component-0 runs only. Component 1 is uniform and carries no
// secret, so the decoder expands it from the seed under the header's
// moduli (expandUniform) straight into the key's slab, where it is
// stored: NTT domain, Montgomery form, as the generator drew it. The limb
// layout is part of the edge protocol's one frame version (see
// internal/edge); a layout change is a version bump there.
//
// All integers are little-endian; float64s travel as IEEE 754 bits, so
// round-trips are bit-exact (wire_test.go cross-checks against the
// standard library's gob encoder as a reference).

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"quhe/internal/he/ring"
)

var (
	// ErrShortBuffer reports a truncated wire buffer.
	ErrShortBuffer = errors.New("ckks: short buffer")
	// ErrMalformed reports structurally invalid wire data.
	ErrMalformed = errors.New("ckks: malformed wire data")
)

// Structural caps on decoded sizes: Params.Validate bounds LogN to 15 and
// Depth to 8, so ciphertexts carry at most 9 limbs, keys over QP at most
// 10, and relin keys one digit per chain limb.
const (
	maxWireN      = 1 << 15
	maxWireLevels = 9
	maxWireLimbs  = 10
	maxWireDigits = 9
)

// polyHeader is the fixed prefix shared by Ciphertext and Plaintext:
// level (u8) | scale bits (u64) | degree (u32). The limb count is
// level + 1.
const polyHeaderLen = 1 + 8 + 4

func appendPolyHeader(b []byte, level int, scale float64, n int) []byte {
	b = append(b, byte(level))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

func decodePolyHeader(b []byte) (level int, scale float64, n int, err error) {
	if len(b) < polyHeaderLen {
		return 0, 0, 0, ErrShortBuffer
	}
	level = int(b[0])
	scale = math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))
	n = int(binary.LittleEndian.Uint32(b[9:13]))
	if level >= maxWireLevels || n == 0 || n > maxWireN || n&(n-1) != 0 {
		return 0, 0, 0, ErrMalformed
	}
	return level, scale, n, nil
}

// reusePoly returns p resized to n coefficients, reusing its storage when
// capacity allows.
func reusePoly(p ring.Poly, n int) ring.Poly {
	if cap(p) >= n {
		return p[:n]
	}
	return make(ring.Poly, n)
}

// reuseRNS returns p resized to the given limb count and degree, reusing
// the outer slice and every limb whose capacity suffices.
func reuseRNS(p ring.RNSPoly, limbs, n int) ring.RNSPoly {
	if cap(p) >= limbs {
		p = p[:limbs]
	} else {
		np := make(ring.RNSPoly, limbs)
		copy(np, p[:cap(p)])
		p = np
	}
	for i := range p {
		p[i] = reusePoly(p[i], n)
	}
	return p
}

// limbsBinarySize is the byte count appendLimbs appends for p.
func limbsBinarySize(p ring.RNSPoly) int {
	n := 0
	for _, limb := range p {
		n += 8 * len(limb)
	}
	return n
}

// appendLimbs appends each limb's raw coefficient run.
func appendLimbs(b []byte, p ring.RNSPoly) []byte {
	for _, limb := range p {
		b = limb.AppendBinary(b)
	}
	return b
}

// decodeLimbs decodes the limbs of a pre-sized RNS polynomial in place.
func decodeLimbs(b []byte, p ring.RNSPoly) (int, error) {
	off := 0
	for i := range p {
		k, err := p[i].DecodeFrom(b[off:])
		if err != nil {
			return 0, err
		}
		off += k
	}
	return off, nil
}

// BinarySize returns the byte count AppendBinary appends for ct.
func (ct *Ciphertext) BinarySize() int {
	return polyHeaderLen + limbsBinarySize(ct.C0) + limbsBinarySize(ct.C1)
}

// AppendBinary appends ct's wire encoding to b: the poly header followed
// by the raw limb runs of c0 then c1 (16·N·(level+1) bytes of payload).
// The layout describes coefficient-form limbs only, so an evaluation-form
// ciphertext panics with ErrEvalForm rather than travel mislabelled.
func (ct *Ciphertext) AppendBinary(b []byte) []byte {
	if ct.evalForm {
		panic(ErrEvalForm) // no error return; reaching here is a caller bug
	}
	b = slices.Grow(b, ct.BinarySize())
	n := 0
	if len(ct.C0) > 0 {
		n = len(ct.C0[0])
	}
	b = appendPolyHeader(b, ct.Level, ct.Scale, n)
	b = appendLimbs(b, ct.C0)
	return appendLimbs(b, ct.C1)
}

// DecodeFrom decodes one ciphertext from the front of b into ct, reusing
// ct's limb storage when possible, and returns the bytes consumed. See
// the package wire conventions for ownership of the decoded value.
func (ct *Ciphertext) DecodeFrom(b []byte) (int, error) {
	level, scale, n, err := decodePolyHeader(b)
	if err != nil {
		return 0, err
	}
	limbs := level + 1
	off := polyHeaderLen
	if len(b)-off < 16*n*limbs {
		return 0, ErrShortBuffer
	}
	ct.C0 = reuseRNS(ct.C0, limbs, n)
	ct.C1 = reuseRNS(ct.C1, limbs, n)
	k, err := decodeLimbs(b[off:], ct.C0)
	if err != nil {
		return 0, err
	}
	off += k
	k, err = decodeLimbs(b[off:], ct.C1)
	if err != nil {
		return 0, err
	}
	ct.Level, ct.Scale, ct.evalForm = level, scale, false
	return off + k, nil
}

// gadgetHeaderLen is the fixed SwitchingKey prefix: digits (u8) | limbs
// (u8) | degree (u32). The limbs QP moduli (u64 each) and the seed follow.
const gadgetHeaderLen = 1 + 1 + 4

// gadgetSize is the encoded size of a switching key of the given shape.
func gadgetSize(digits, limbs, n int) int {
	return gadgetHeaderLen + 8*limbs + SeedSize + digits*limbs*8*n
}

// BinarySize returns the byte count AppendBinary appends for k.
func (k *SwitchingKey) BinarySize() int {
	n := gadgetHeaderLen + 8*len(k.QP) + SeedSize
	for _, part := range k.Parts {
		n += limbsBinarySize(part[0])
	}
	return n
}

// AppendBinary appends k's wire encoding: digits (u8) | limbs (u8) |
// degree (u32) | QP moduli (u64 each) | seed | per digit, the component-0
// limb runs. Component 1 is the seed's expansion and does not travel.
func (k *SwitchingKey) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, k.BinarySize())
	n := 0
	if len(k.Parts) > 0 && len(k.Parts[0][0]) > 0 {
		n = len(k.Parts[0][0][0])
	}
	b = append(b, byte(len(k.Parts)), byte(len(k.QP)))
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, q := range k.QP {
		b = binary.LittleEndian.AppendUint64(b, q)
	}
	b = append(b, k.Seed[:]...)
	for _, part := range k.Parts {
		b = appendLimbs(b, part[0])
	}
	return b
}

// DecodeFrom decodes a switching key from the front of b into k (fresh
// storage; key material is retained) and returns the bytes consumed:
// component 0 is copied out of b and component 1 expanded from the seed
// under the decoded moduli. Each modulus must lie in [2, 2⁶²) — the
// expansion's termination bound — or the key is ErrMalformed; whether
// they are the moduli of a served ring is Context.CheckSwitchingKey's
// question.
func (k *SwitchingKey) DecodeFrom(b []byte) (int, error) {
	if len(b) < gadgetHeaderLen {
		return 0, ErrShortBuffer
	}
	digits, limbs := int(b[0]), int(b[1])
	n := int(binary.LittleEndian.Uint32(b[2:6]))
	if digits == 0 || digits > maxWireDigits ||
		limbs == 0 || limbs > maxWireLimbs || n == 0 || n > maxWireN || n&(n-1) != 0 {
		return 0, ErrMalformed
	}
	size := gadgetSize(digits, limbs, n)
	if len(b) < size {
		return 0, ErrShortBuffer
	}
	off := gadgetHeaderLen
	qp := make([]uint64, limbs)
	for t := range qp {
		qp[t] = binary.LittleEndian.Uint64(b[off:])
		if qp[t] < 2 || qp[t] >= 1<<62 {
			return 0, ErrMalformed
		}
		off += 8
	}
	var seed [SeedSize]byte
	off += copy(seed[:], b[off:])
	parts := newGadget(digits, limbs, n)
	for _, part := range parts {
		m, err := decodeLimbs(b[off:], part[0])
		if err != nil {
			return 0, err
		}
		off += m
	}
	expandUniform(&seed, qp, parts)
	k.QP, k.Seed, k.Parts = qp, seed, parts
	return size, nil
}

// maxWireGaloisKeys caps a decoded key set: the BSGS rotation set needs
// ~2·√slots keys (≤ 256 at the LogN 15 cap); 1024 leaves headroom without letting hostile input
// drive unbounded allocation.
const maxWireGaloisKeys = 1024

// galoisKeyHeaderLen is the GaloisKey prefix ahead of its gadget:
// rot (i32) | element (u64).
const galoisKeyHeaderLen = 4 + 8

// BinarySize returns the byte count AppendBinary appends for gk.
func (gk *GaloisKey) BinarySize() int {
	return galoisKeyHeaderLen + gk.SwitchingKey.BinarySize()
}

// AppendBinary appends gk's wire encoding: rot (i32) | element (u64) |
// then the gadget in the SwitchingKey layout.
func (gk *GaloisKey) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, gk.BinarySize())
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(gk.Rot)))
	b = binary.LittleEndian.AppendUint64(b, gk.El)
	return gk.SwitchingKey.AppendBinary(b)
}

// DecodeFrom decodes a Galois key from the front of b into gk (fresh
// storage; key material is retained) and returns the bytes consumed. The
// rotation/element pair is validated against the decoded ring degree so a
// key can never be installed under the wrong automorphism.
func (gk *GaloisKey) DecodeFrom(b []byte) (int, error) {
	if len(b) < galoisKeyHeaderLen {
		return 0, ErrShortBuffer
	}
	rot := int(int32(binary.LittleEndian.Uint32(b[0:4])))
	el := binary.LittleEndian.Uint64(b[4:12])
	var k SwitchingKey
	size, err := k.DecodeFrom(b[galoisKeyHeaderLen:])
	if err != nil {
		return 0, err
	}
	n := len(k.Parts[0][0][0])
	if n < 4 || el != ring.GaloisElement(rot, n) {
		return 0, ErrMalformed
	}
	gk.Rot, gk.El, gk.SwitchingKey = rot, el, k
	return galoisKeyHeaderLen + size, nil
}

// keySetHeaderLen is the GaloisKeySet prefix: count (u16).
const keySetHeaderLen = 2

// BinarySize returns the byte count AppendBinary appends for s.
func (s *GaloisKeySet) BinarySize() int {
	n := keySetHeaderLen
	for _, gk := range s.Keys {
		n += gk.BinarySize()
	}
	return n
}

// AppendBinary appends the key set: count (u16) | keys in ascending
// element order (deterministic bytes for identical sets).
func (s *GaloisKeySet) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, s.BinarySize())
	els := make([]uint64, 0, len(s.Keys))
	for el := range s.Keys {
		els = append(els, el)
	}
	slices.Sort(els)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(els)))
	for _, el := range els {
		b = s.Keys[el].AppendBinary(b)
	}
	return b
}

// DecodeFrom decodes a Galois key set from the front of b into s (fresh
// storage) and returns the bytes consumed. Duplicate elements are
// rejected.
func (s *GaloisKeySet) DecodeFrom(b []byte) (int, error) {
	if len(b) < keySetHeaderLen {
		return 0, ErrShortBuffer
	}
	count := int(binary.LittleEndian.Uint16(b))
	if count > maxWireGaloisKeys {
		return 0, ErrMalformed
	}
	off := keySetHeaderLen
	keys := make(map[uint64]*GaloisKey, count)
	for i := 0; i < count; i++ {
		gk := new(GaloisKey)
		k, err := gk.DecodeFrom(b[off:])
		if err != nil {
			return 0, err
		}
		if _, dup := keys[gk.El]; dup {
			return 0, ErrMalformed
		}
		keys[gk.El] = gk
		off += k
	}
	s.Keys = keys
	return off, nil
}
