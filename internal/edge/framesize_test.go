package edge

import (
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
)

// keyFrames builds the three requests that carry key material — a Setup, a
// Rekey and one rotation key's RotKeys — on a profile's context, each
// field at its largest legal size.
func keyFrames(t testing.TB, ctx *ckks.Context) (*SetupRequest, *RekeyRequest, *RotKeysRequest) {
	t.Helper()
	kg := ckks.NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	encKey := make([]*ckks.Ciphertext, KeyLen)
	for i := range encKey {
		encKey[i] = ctx.NewCiphertext(ctx.MaxLevel())
	}
	nonce := make([]byte, 12)
	setup := &SetupRequest{RLK: kg.GenRelinKey(sk), EncKey: encKey, Nonce: nonce}
	rekey := &RekeyRequest{EncKey: encKey, Nonce: nonce}
	rotKeys := &RotKeysRequest{Key: kg.GenGaloisKey(sk, 1)}
	return setup, rekey, rotKeys
}

// TestKeyFramesAllocateOnce fences the sender side of a session upload: a
// Setup, Rekey or one-key RotKeys frame built into a fresh 4 KiB buffer —
// header, payload and checksum trailer — allocates its frame once, sized
// exactly, instead of regrowing it through a geometric series.
func TestKeyFramesAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	def, _ := profile.Default().Get(profile.IDDefault)
	ctx, err := def.Context()
	if err != nil {
		t.Fatal(err)
	}
	setup, rekey, rotKeys := keyFrames(t, ctx)

	buf := make([]byte, 0, 4096)
	for _, c := range []struct {
		name  string
		ftype byte
		build func([]byte) []byte
	}{
		{"setup", frameSetup, func(b []byte) []byte { return appendSetupRequest(b, setup) }},
		{"rekey", frameRekey, func(b []byte) []byte { return appendRekeyRequest(b, rekey) }},
		{"rotkeys", frameRotKeys, func(b []byte) []byte { return appendRotKeysRequest(b, rotKeys) }},
	} {
		var frame []byte
		allocs := testing.AllocsPerRun(8, func() {
			frame, err = finishFrame(c.build(beginFrame(buf[:0], c.ftype, 1)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 1 {
			t.Errorf("%s frame: %v allocations into a 4 KiB buffer, want 1", c.name, allocs)
		}
		// The allocator rounds a large object up to whole 8 KiB pages.
		if len(frame) <= cap(buf) || cap(frame)-len(frame) >= 8<<10 {
			t.Errorf("%s frame: %d bytes in a %d-byte allocation, want one sized to the frame",
				c.name, len(frame), cap(frame))
		}
	}
}

// TestEveryLegalFrameFits holds the frame cap to the frames the protocol
// sends. First, on every registered profile, the Setup, the Rekey and one
// rotation key's RotKeys payload — sized by the codecs from BinarySize,
// every variable field at its largest legal size — fit maxFramePayload:
// no model dimension changes a frame's size, only the number of RotKeys
// frames. Second, a server accepts a 2048×2048 model (46 rotation keys,
// ≈45 MB at λ-128k, which as one frame would be eleven times the cap), and
// a λ-128k client completes EnableMatVec against it in 46 frames.
func TestEveryLegalFrameFits(t *testing.T) {
	for _, id := range profile.Default().IDs() {
		p, _ := profile.Default().Get(id)
		ctx, err := p.Context()
		if err != nil {
			t.Fatal(err)
		}
		setup, rekey, rotKeys := keyFrames(t, ctx)
		for _, c := range []struct {
			name string
			size int
		}{
			{"setup", len(appendSetupRequest(nil, setup))},
			{"rekey", len(appendRekeyRequest(nil, rekey))},
			{"one-key rotkeys", len(appendRotKeysRequest(nil, rotKeys))},
		} {
			t.Logf("%s %s payload: %d bytes", p.ID, c.name, c.size)
			if c.size > maxFramePayload {
				t.Errorf("%s %s payload is %d bytes, past the %d-byte frame cap", p.ID, c.name, c.size, maxFramePayload)
			}
		}
	}
	if testing.Short() {
		t.Skip("skipping the dimension-2048 upload in short mode")
	}

	const dim = 2048
	row := make([]float64, dim) // the upload reads the dimension only
	m := make([][]float64, dim)
	for i := range m {
		m[i] = row
	}
	srv := startServer(t, Model{Matrix: m})
	client, err := DialWith(srv.Addr(), "wide", []byte("wide-model-material"), 97,
		DialConfig{Profile: profile.IDLambda128k})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Profile() != profile.IDLambda128k || client.MatVecDim() != dim {
		t.Fatalf("session on %s with matvec dimension %d, want %s and %d",
			client.Profile(), client.MatVecDim(), profile.IDLambda128k, dim)
	}
	before := srv.met.framesIn.Value()
	if err := client.EnableMatVec(); err != nil {
		t.Fatalf("EnableMatVec at dimension %d: %v", dim, err)
	}
	const wantKeys = 46 // n1 = ⌈√2048⌉: baby steps 1…45 and the giant step 46
	if frames := srv.met.framesIn.Value() - before; frames != wantKeys {
		t.Errorf("EnableMatVec sent %d frames, want %d (one per rotation key)", frames, wantKeys)
	}
	sess, _ := srv.store.Peek("wide")
	if got := len(sess.RotKeys().Keys); got != wantKeys {
		t.Errorf("session installed %d rotation keys, want %d", got, wantKeys)
	}
}
