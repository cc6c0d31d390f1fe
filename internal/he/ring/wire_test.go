package ring

import (
	"errors"
	"math/rand"
	"testing"
)

func TestPolyWireRoundTrip(t *testing.T) {
	q := nttPrime(t, 40, 256)
	m, err := NewModulus(q, 256)
	if err != nil {
		t.Fatal(err)
	}
	p := m.UniformPoly(rand.New(rand.NewSource(5)))
	enc := p.AppendBinary(nil)
	if len(enc) != 8*len(p) {
		t.Fatalf("encoded %d bytes, want %d", len(enc), 8*len(p))
	}
	got := make(Poly, len(p))
	n, err := got.DecodeFrom(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d bytes, want %d", n, len(enc))
	}
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("coefficient %d: %d != %d", i, got[i], p[i])
		}
	}
	// Appending after existing content leaves the prefix intact.
	enc2 := p.AppendBinary([]byte{0xaa, 0xbb})
	if enc2[0] != 0xaa || enc2[1] != 0xbb || len(enc2) != 2+8*len(p) {
		t.Error("AppendBinary corrupted the buffer prefix")
	}
}

func TestPolyDecodeShortBuffer(t *testing.T) {
	p := make(Poly, 8)
	enc := p.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := p.DecodeFrom(enc[:cut]); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("truncation at %d: err = %v, want ErrShortBuffer", cut, err)
		}
	}
}

// TestPolyCodecZeroAlloc pins the steady-state contract: encoding into a
// buffer with capacity and decoding into an existing Poly allocate
// nothing.
func TestPolyCodecZeroAlloc(t *testing.T) {
	p := make(Poly, 1024)
	for i := range p {
		p[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	buf := make([]byte, 0, 8*len(p))
	dst := make(Poly, len(p))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = p.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendBinary allocs/op = %g, want 0", allocs)
	}
	enc := p.AppendBinary(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := dst.DecodeFrom(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeFrom allocs/op = %g, want 0", allocs)
	}
}
