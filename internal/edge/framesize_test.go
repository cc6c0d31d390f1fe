package edge

import (
	"errors"
	"strings"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
)

// TestKeyFramesAllocateOnce fences the sender side of a session upload: a
// Setup, Rekey or RotKeys frame built into a fresh 4 KiB buffer — header,
// payload and checksum trailer — allocates its frame once, sized exactly,
// instead of regrowing it through a geometric series. The key set's
// encoder adds one more allocation of its own, the element-order slice.
func TestKeyFramesAllocateOnce(t *testing.T) {
	ctx, err := profile.Default().Default().Context()
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	encKey := make([]*ckks.Ciphertext, KeyLen)
	for i := range encKey {
		encKey[i] = ctx.NewCiphertext(ctx.MaxLevel())
	}
	setup := &SetupRequest{SessionID: "sess", LogN: ctx.Params.LogN, Depth: ctx.Params.Depth,
		RLK: kg.GenRelinKey(sk), EncKey: encKey,
		Nonce: []byte("nonce"), Profile: profile.IDDefault, ResumeAuth: make([]byte, 32)}
	rekey := &RekeyRequest{SessionID: "sess", EncKey: encKey, Nonce: []byte("nonce"), ResumeAuth: make([]byte, 32)}
	rotKeys := &RotKeysRequest{SessionID: "sess", Keys: kg.GenGaloisKeys(sk, ckks.BSGSRotations(64))}

	buf := make([]byte, 0, 4096)
	for _, c := range []struct {
		name  string
		ftype byte
		build func([]byte) []byte
		max   float64
	}{
		{"setup", frameSetup, func(b []byte) []byte { return appendSetupRequest(b, setup) }, 1},
		{"rekey", frameRekey, func(b []byte) []byte { return appendRekeyRequest(b, rekey) }, 1},
		{"rotkeys", frameRotKeys, func(b []byte) []byte { return appendRotKeysRequest(b, rotKeys) }, 2},
	} {
		var frame []byte
		allocs := testing.AllocsPerRun(8, func() {
			frame, err = finishFrame(c.build(beginFrame(buf[:0], c.ftype, 1)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > c.max {
			t.Errorf("%s frame: %v allocations into a 4 KiB buffer, want ≤ %v", c.name, allocs, c.max)
		}
		// The allocator rounds a large object up to whole 8 KiB pages.
		if len(frame) <= cap(buf) || cap(frame)-len(frame) >= 8<<10 {
			t.Errorf("%s frame: %d bytes in a %d-byte allocation, want one sized to the frame",
				c.name, len(frame), cap(frame))
		}
	}
}

// TestNewServerRejectsUnsendableModel: a model matrix whose rotation keys
// cannot fit one RotKeys frame on some profile is refused up front with a
// typed error naming the profile, while the benchmark's 256×256 model —
// 30 keys, ≈29.5 MB at λ-128k — is accepted. Dimension 2048 needs 89
// keys: ≈44 MB fits at λ-64k, ≈88 MB at λ-128k does not.
func TestNewServerRejectsUnsendableModel(t *testing.T) {
	square := func(dim int) [][]float64 {
		row := make([]float64, dim) // the size check reads the dimension only
		m := make([][]float64, dim)
		for i := range m {
			m[i] = row
		}
		return m
	}
	startServer(t, Model{Matrix: square(256)})

	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: Model{Matrix: square(2048)}})
	if err == nil {
		srv.Close()
		t.Fatal("dimension-2048 model accepted")
	}
	if !errors.Is(err, ErrRotKeysTooLarge) || !strings.Contains(err.Error(), "profile "+profile.IDLambda128k) {
		t.Fatalf("dimension-2048 model: err = %v, want ErrRotKeysTooLarge naming %s", err, profile.IDLambda128k)
	}
}
