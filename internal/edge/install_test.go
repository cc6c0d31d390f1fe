package edge

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"quhe/internal/chacha20"
	"quhe/internal/he/ckks"
	"quhe/internal/he/ring"
	"quhe/internal/serve"
)

// hostileKeys returns the malformed transciphering-key uploads the
// install step must refuse — every shape the codec can carry (it writes
// one degree and level+1 equal limbs per ciphertext, so ragged keys
// cannot reach the server).
func (p *rawPeer) hostileKeys(t *testing.T) map[string][]*ckks.Ciphertext {
	t.Helper()
	top := p.ctx.MaxLevel()
	keys := map[string][]*ckks.Ciphertext{}
	k := p.encKey(t)
	k[3].C1[2][5] = p.ctx.Primes[2]
	keys["residue equal to its prime"] = k
	k = p.encKey(t)
	k[0].C0[0][0] = ^uint64(0)
	keys["all-ones residue"] = k
	k = p.encKey(t)
	k[5].Level = top - 1
	k[5].C0, k[5].C1 = k[5].C0[:top], k[5].C1[:top]
	keys["one coordinate a level down"] = k
	k = p.encKey(t)
	for _, comp := range []ring.RNSPoly{k[2].C0, k[2].C1} {
		for i := range comp {
			comp[i] = comp[i][:len(comp[i])/2]
		}
	}
	keys["half-degree coordinate"] = k
	return keys
}

// hostileGadgets returns malformed variants of a switching key (a
// relinearization key or a rotation key's gadget) with the code each must
// be refused under: a gadget built for another ring is a parameter
// mismatch, an unreduced residue a bad request. Component 1 travels as a
// seed and is expanded by the server, so every variant tampers with what
// the wire carries: the basis, the shape and component 0. Each variant is
// a deep copy; k is left intact.
func (p *rawPeer) hostileGadgets(k *ckks.SwitchingKey) map[string]struct {
	key  *ckks.SwitchingKey
	code serve.Code
} {
	clone := func() *ckks.SwitchingKey {
		out := &ckks.SwitchingKey{QP: append([]uint64(nil), k.QP...), Seed: k.Seed,
			Parts: make([][2]ring.RNSPoly, len(k.Parts))}
		for j := range k.Parts {
			for c := range k.Parts[j] {
				out.Parts[j][c] = make(ring.RNSPoly, len(k.Parts[j][c]))
				for l, limb := range k.Parts[j][c] {
					out.Parts[j][c][l] = append(ring.Poly(nil), limb...)
				}
			}
		}
		return out
	}
	type variant = struct {
		key  *ckks.SwitchingKey
		code serve.Code
	}
	out := map[string]variant{}
	one := clone()
	one.Parts = one.Parts[:1]
	out["one digit"] = variant{one, serve.CodeParamMismatch}
	half := clone()
	for j := range half.Parts {
		for c := range half.Parts[j] {
			for l := range half.Parts[j][c] {
				half.Parts[j][c][l] = half.Parts[j][c][l][:len(half.Parts[j][c][l])/2]
			}
		}
	}
	out["half degree"] = variant{half, serve.CodeParamMismatch}
	short := clone()
	short.QP = short.QP[:len(short.QP)-1]
	for j := range short.Parts {
		for c := range short.Parts[j] {
			short.Parts[j][c] = short.Parts[j][c][:len(short.Parts[j][c])-1]
		}
	}
	out["special limb missing"] = variant{short, serve.CodeParamMismatch}
	other := clone()
	other.QP[1] = p.ctx.Primes[0]
	out["another basis"] = variant{other, serve.CodeParamMismatch}
	unreduced := clone()
	unreduced.Parts[1][0][1][7] = p.ctx.Primes[1]
	out["residue equal to its prime"] = variant{unreduced, serve.CodeBadRequest}
	special := clone()
	last := len(special.Parts[0][0]) - 1
	special.Parts[0][0][last][0] = ^uint64(0)
	out["all-ones residue on the special limb"] = variant{special, serve.CodeBadRequest}
	return out
}

// checkSessions and checkEpoch witness that a rejected install left no
// trace and a good one took.
func checkSessions(t *testing.T, srv *Server, what string, want int) {
	t.Helper()
	if got := srv.store.Len(); got != want {
		t.Fatalf("%s: %d sessions resident, want %d", what, got, want)
	}
}

func checkEpoch(t *testing.T, srv *Server, id, what string, want uint64) {
	t.Helper()
	st, ok := srv.SessionStats(id)
	if !ok || st.Epoch != want {
		t.Fatalf("%s: session %q at epoch %d (found %v), want %d", what, id, st.Epoch, ok, want)
	}
}

// TestInstallValidationV3: every malformed key the codec can carry —
// transciphering key, relinearization key, rotation keys — is refused
// typed at Setup, Rekey and rotation-key upload, on the same connection,
// without tearing it down and without leaving a trace. The one-digit
// relinearization key is the remote crash this guards: before install
// validation, that Setup was accepted and the session's first Compute
// indexed past the key on a scheduler worker, killing the server.
func TestInstallValidationV3(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}, Matrix: testMatrix})
	p := newRawPeer(t, 191)
	p.dial(t, srv.Addr())

	rekey := func(k []*ckks.Ciphertext) *SessionReply {
		t.Helper()
		req := &RekeyRequest{EncKey: k, Nonce: []byte("edge:rekeyed")}
		return p.session(t, frameRekey, func(b []byte) []byte { return appendRekeyRequest(b, req) })
	}
	p.grant(t, "v3")
	for name, k := range p.hostileKeys(t) {
		if rep := p.setup(t, p.setupRequest(k)); rep.Code != serve.CodeBadRequest {
			t.Errorf("setup, transciphering key with %s: reply %+v, want CodeBadRequest", name, rep)
		}
	}
	for name, g := range p.hostileGadgets(p.rlk) {
		req := p.setupRequest(p.encKey(t))
		req.RLK = g.key
		if rep := p.setup(t, req); rep.Code != g.code {
			t.Errorf("setup, relinearization key with %s: reply %+v, want %v", name, rep, g.code)
		}
	}
	checkSessions(t, srv, "after hostile setups", 0)
	p.register(t, "v3")
	for name, k := range p.hostileKeys(t) {
		if rep := rekey(k); rep.Code != serve.CodeBadRequest {
			t.Errorf("rekey, %s: reply %+v, want CodeBadRequest", name, rep)
		}
	}
	checkEpoch(t, srv, "v3", "after hostile rekeys", 1)
	if rep := rekey(p.encKey(t)); replyError(rep.Code, rep.Err) != nil || rep.Epoch != 2 {
		t.Fatalf("good rekey: %+v", rep)
	}

	// Rotation keys: every hostile variant of one key, sent mid-stream, is
	// refused typed and kept out of the connection's pending set, so the
	// upload stays incomplete — nothing is installed, and the session keeps
	// serving Computes without matvec — until the good key arrives.
	keys := p.rotKeys(193, len(testMatrix))
	victim := len(keys) / 2
	upload := func(reqs []*RotKeysRequest) {
		t.Helper()
		for _, req := range reqs {
			if rep := p.uploadKey(t, req); replyError(rep.Code, rep.Err) != nil {
				t.Fatalf("good rotation key %d refused: %+v", req.Key.Rot, rep)
			}
		}
	}
	upload(keys[:victim])
	good := keys[victim].Key
	for name, g := range p.hostileGadgets(&good.SwitchingKey) {
		bad := &RotKeysRequest{Key: &ckks.GaloisKey{Rot: good.Rot, El: good.El, SwitchingKey: *g.key}}
		if rep := p.uploadKey(t, bad); rep.Code != g.code {
			t.Errorf("rotation key with %s: reply %+v, want %v", name, rep, g.code)
		}
	}
	upload(keys[victim+1:])
	sess, _ := srv.store.Peek("v3")
	if sess.RotKeys() != nil {
		t.Fatal("a rotation-key set missing its refused key was installed")
	}
	compute := func(ftype byte, block uint32) *ComputeReply {
		t.Helper()
		req := &ComputeRequest{Block: block, Epoch: 2, Masked: make([]float64, 4)}
		rep, err := decodeComputeReply(p.call(t, ftype, frameComputeReply, func(b []byte) []byte { return appendComputeRequest(b, req) }))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := compute(frameCompute, 0); rep.Code != serve.CodeOK {
		t.Errorf("compute after refused uploads: %+v", rep)
	}
	if rep := compute(frameMatVec, 1); rep.Code != serve.CodeMatVecUnavailable {
		t.Errorf("matvec without installed rotation keys: %+v, want CodeMatVecUnavailable", rep)
	}
	upload(keys[victim : victim+1])
	if rep := compute(frameMatVec, 2); rep.Code != serve.CodeOK {
		t.Errorf("matvec after the good upload: %+v", rep)
	}
}

// TestNonceLengthEnforced: Setup and Rekey hold the masking nonce to the
// cipher's exact length. The keystream expansion copies the nonce into a
// fixed array, so before this check an empty Setup nonce ran every block
// under the all-zero nonce and a 13-byte one was silently truncated — the
// server unmasking under a nonce the client never used. Refusals are typed,
// leave no session and no epoch bump, and keep the connection usable.
func TestNonceLengthEnforced(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	p := newRawPeer(t, 193)
	p.dial(t, srv.Addr())

	rekey := func(nonce []byte) *SessionReply {
		t.Helper()
		req := &RekeyRequest{EncKey: p.encKey(t), Nonce: nonce}
		return p.session(t, frameRekey, func(b []byte) []byte { return appendRekeyRequest(b, req) })
	}
	bad := [][]byte{nil, make([]byte, chacha20.NonceSize-1), make([]byte, chacha20.NonceSize+1)}
	p.grant(t, "nonce")
	for _, nonce := range bad {
		req := p.setupRequest(p.encKey(t))
		req.Nonce = nonce
		if rep := p.setup(t, req); rep.Code != serve.CodeBadRequest {
			t.Errorf("setup with a %d-byte nonce: reply %+v, want CodeBadRequest", len(nonce), rep)
		}
	}
	checkSessions(t, srv, "after bad-nonce setups", 0)
	p.register(t, "nonce")
	for _, nonce := range bad {
		if rep := rekey(nonce); rep.Code != serve.CodeBadRequest {
			t.Errorf("rekey with a %d-byte nonce: reply %+v, want CodeBadRequest", len(nonce), rep)
		}
	}
	checkEpoch(t, srv, "nonce", "after bad-nonce rekeys", 1)
	if rep := rekey(make([]byte, chacha20.NonceSize)); replyError(rep.Code, rep.Err) != nil || rep.Epoch != 2 {
		t.Fatalf("good rekey: %+v", rep)
	}
}

// TestComputeConcurrentWithRekey rotates a session's key while blocks
// are in flight on two workers. The server swaps the installed key, the
// nonce and the epoch together, so every reply must be either the
// correct plaintext (the block ran wholly under one key generation) or
// a typed CodeRekeyRequired (it was masked under the generation the
// rotation retired) — never a block evaluated with one generation's key
// and another's nonce, which would decrypt to noise. Run under -race:
// the in-place conversion at Rekey must not touch a key a worker reads.
func TestComputeConcurrentWithRekey(t *testing.T) {
	model := Model{Weights: []float64{0.5, -1, 2}, Bias: []float64{0.25, 0, -0.5}}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: model, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialQKDWith(srv.Addr(), "rotating", provisionedKeyCenter(t, "rotating"), 61, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []float64{0.3, -0.7, 0.1}
	want := make([]float64, len(data))
	for i, x := range data {
		want[i] = model.Weights[i]*x + model.Bias[i]
	}
	const lanes, rotations = 3, 6
	stop := make(chan struct{})
	var served, refused atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for block := uint32(lane); ; block += lanes {
				select {
				case <-stop:
					return
				default:
				}
				got, err := client.Compute(block, data)
				switch {
				case errors.Is(err, serve.ErrRekeyRequired):
					refused.Add(1)
				case err != nil:
					t.Errorf("block %d: %v", block, err)
					return
				default:
					served.Add(1)
					for i := range want {
						if math.Abs(got[i]-want[i]) > 0.01 {
							t.Errorf("block %d slot %d = %v, want %v: evaluated across key generations", block, i, got[i], want[i])
							return
						}
					}
				}
			}
		}(lane)
	}
	for r := 1; r <= rotations; r++ {
		if err := client.Rekey(); err != nil {
			t.Errorf("rotation %d: %v", r, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Error("no block was served beside the rotations")
	}
	if got := client.Epoch(); got != rotations+1 {
		t.Errorf("client at epoch %d after %d rotations", got, rotations)
	}
	t.Logf("%d blocks served, %d refused with CodeRekeyRequired across %d rotations", served.Load(), refused.Load(), rotations)
}
