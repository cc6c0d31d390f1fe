package ring

import (
	"encoding/binary"
	"errors"
	"slices"
)

// ErrShortBuffer reports a wire buffer too short for the value being
// decoded. It is the only error the Poly codec returns, so fuzzing and
// protocol layers can branch on it with errors.Is.
var ErrShortBuffer = errors.New("ring: short buffer")

// AppendBinary appends p's wire encoding to b and returns the extended
// slice: one raw little-endian uint64 per coefficient, 8·len(p) bytes, no
// length prefix (the container encodes the degree once). The loop compiles
// to straight 8-byte stores — no reflection, no per-coefficient branching —
// and appending into a buffer with sufficient capacity performs no
// allocation, which is what lets protocol layers reuse pooled frame
// buffers across messages. Containers size their buffer once for the
// whole value (ckks BinarySize), so this grow is a no-op on their path.
func (p Poly) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, 8*len(p))
	off := len(b)
	b = b[:off+8*len(p)]
	dst := b[off:]
	for i, v := range p {
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
	return b
}

// DecodeFrom fills p from the first 8·len(p) bytes of b (the AppendBinary
// layout) and returns the number of bytes consumed. p defines the expected
// degree; a shorter buffer returns ErrShortBuffer and leaves p
// unspecified. The decoded coefficients are copied out of b, so the caller
// may immediately reuse the buffer — but note the codec does not (and
// cannot) validate coefficients against any modulus; containers that
// retain decoded polynomials across trust boundaries reduce them first.
func (p Poly) DecodeFrom(b []byte) (int, error) {
	n := 8 * len(p)
	if len(b) < n {
		return 0, ErrShortBuffer
	}
	src := b[:n]
	for i := range p {
		p[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return n, nil
}
