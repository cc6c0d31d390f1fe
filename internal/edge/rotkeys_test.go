package edge

import (
	"math"
	"strings"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/serve"
)

// matvecRaw sends one MatVec block of the connection's session (x
// replicated across the slots, as Client.MatVecAsync packs it) and returns
// the reply.
func (p *rawPeer) matvecRaw(t *testing.T, block uint32, x []float64) *ComputeReply {
	t.Helper()
	full := make([]float64, p.cipher.Slots())
	for j := range full {
		full[j] = x[j%len(x)]
	}
	req := &ComputeRequest{Block: block, Epoch: 1, Masked: p.mask(t, block, full)}
	rep, err := decodeComputeReply(p.call(t, frameMatVec, frameComputeReply,
		func(b []byte) []byte { return appendComputeRequest(b, req) }))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkMatVec holds a served matvec reply to testMatrix·x + testMatrixBias.
func (p *rawPeer) checkMatVec(t *testing.T, rep *ComputeReply, x []float64) {
	t.Helper()
	if rep.Code != serve.CodeOK || rep.Result == nil {
		t.Fatalf("matvec: %+v, want a result", rep)
	}
	got := p.decrypt(rep.Result)
	for i, want := range plainMatVec(testMatrix, testMatrixBias, x) {
		if math.Abs(got[i]-want) > 0.01 {
			t.Errorf("matvec slot %d = %v, want %v", i, got[i], want)
		}
	}
}

// wrongWidth returns generators over p's ring whose keys are one level
// too narrow and one too wide for the levels the profile serves them at.
func (p *rawPeer) wrongWidth(t *testing.T, seed int64) map[string]*ckks.KeyGenerator {
	t.Helper()
	out := map[string]*ckks.KeyGenerator{}
	for name, d := range map[string]int{"one level too narrow": -1, "one level too wide": 1} {
		ctx, err := p.ctx.WithKeyLevels(p.ctx.RelinLevel()+d, p.ctx.GaloisLevel()+d)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = ckks.NewKeyGenerator(ctx, seed)
	}
	return out
}

// TestRotKeysUploadRefusals: a Setup whose relinearization key, or a
// rotation key whose gadget, is one level too narrow or too wide for the
// level the profile switches it at is refused as a parameter mismatch; a
// rotation key that arrives twice, one for a rotation outside
// BSGSRotations of the model dimension, one for a giant rotation 2·n1
// (the Horner chain's giant steps all rotate by n1, so no other multiple
// of n1 has a key) and one after the set is installed are each refused
// typed, and the connection keeps serving: the upload completes around
// the refusals and matvec runs on the set it installed.
func TestRotKeysUploadRefusals(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}, Matrix: testMatrix, MatrixBias: testMatrixBias})
	p := newRawPeer(t, 211)
	p.dial(t, srv.Addr())
	wrong := p.wrongWidth(t, 219)
	p.grant(t, "refusals")
	for name, kg := range wrong {
		req := p.setupRequest(p.encKey(t))
		req.RLK = kg.GenRelinKey(p.sk)
		if rep := p.setup(t, req); rep.Code != serve.CodeParamMismatch || !strings.Contains(rep.Err, "relinearization key") {
			t.Errorf("setup with a relinearization key %s: reply %+v, want CodeParamMismatch", name, rep)
		}
	}
	checkSessions(t, srv, "after setups with keys of the wrong width", 0)
	p.register(t, "refusals")
	for name, kg := range wrong {
		req := &RotKeysRequest{Key: kg.GenGaloisKey(p.sk, 1)}
		if rep := p.uploadKey(t, req); rep.Code != serve.CodeParamMismatch {
			t.Errorf("rotation key %s: reply %+v, want CodeParamMismatch", name, rep)
		}
	}
	keys := p.rotKeys(213, len(testMatrix))
	kg := ckks.NewKeyGenerator(p.ctx, 217)
	const n1 = 2 // ⌈√4⌉: the plan's rotations are 1 and 2
	outside := &RotKeysRequest{Key: kg.GenGaloisKey(p.sk, n1+1)}
	oldGiant := &RotKeysRequest{Key: kg.GenGaloisKey(p.sk, 2*n1)}

	refused := func(what string, req *RotKeysRequest, detail string) {
		t.Helper()
		rep := p.uploadKey(t, req)
		if rep.Code != serve.CodeBadRequest || !strings.Contains(rep.Err, detail) {
			t.Errorf("%s: reply %+v, want CodeBadRequest saying %q", what, rep, detail)
		}
	}
	if rep := p.uploadKey(t, keys[0]); replyError(rep.Code, rep.Err) != nil {
		t.Fatalf("first key refused: %+v", rep)
	}
	refused("the first key again", keys[0], "uploaded twice")
	refused("a key outside the plan", outside, "not a rotation of the dimension-4 matvec plan")
	refused("a key for giant rotation 2·n1", oldGiant, "not a rotation of the dimension-4 matvec plan")
	sess, _ := srv.store.Peek("refusals")
	if sess.RotKeys() != nil {
		t.Fatal("rotation keys installed before the set was complete")
	}
	for _, req := range keys[1:] {
		if rep := p.uploadKey(t, req); replyError(rep.Code, rep.Err) != nil {
			t.Fatalf("rotation key %d refused: %+v", req.Key.Rot, rep)
		}
	}
	if got := len(sess.RotKeys().Keys); got != len(keys) {
		t.Fatalf("%d rotation keys installed, want %d", got, len(keys))
	}
	refused("a key after install", keys[0], "already installed")
	x := []float64{0.5, -0.25, 1, 0.75}
	p.checkMatVec(t, p.matvecRaw(t, 1, x), x)
}

// TestInterruptedRotKeysUpload: a peer that sends some of a session's
// rotation keys and drops the connection installs nothing — the partial
// set lived on the connection — and the session ends with it. A redial
// registers the ID afresh, without rotation keys: matvec is unavailable
// there until a full upload, which then installs and serves.
func TestInterruptedRotKeysUpload(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}, Matrix: testMatrix, MatrixBias: testMatrixBias})
	p := newRawPeer(t, 221)
	p.dial(t, srv.Addr())
	p.register(t, "interrupted")
	keys := p.rotKeys(223, len(testMatrix))
	for _, req := range keys[:len(keys)-1] {
		if rep := p.uploadKey(t, req); replyError(rep.Code, rep.Err) != nil {
			t.Fatalf("rotation key %d refused: %+v", req.Key.Rot, rep)
		}
	}
	p.conn.Close()
	waitSessionGone(t, srv, "interrupted")

	q := *p
	q.buf = nil
	q.dial(t, srv.Addr())
	q.register(t, "interrupted")
	sess, _ := srv.store.Peek("interrupted")
	if sess.RotKeys() != nil {
		t.Fatal("an interrupted upload was installed")
	}
	x := []float64{-0.5, 0.25, 0.125, 1}
	if rep := q.matvecRaw(t, 1, x); rep.Code != serve.CodeMatVecUnavailable {
		t.Fatalf("matvec after an interrupted upload: %+v, want CodeMatVecUnavailable", rep)
	}
	q.uploadRotKeys(t, 223, len(testMatrix))
	q.checkMatVec(t, q.matvecRaw(t, 2, x), x)
}

// TestEnableMatVecRetryAfterInstall: a client whose last rotation-key
// reply was lost cannot tell that the server installed its set, so it
// uploads again. Every key of the retry meets the server's "already
// installed" refusal, which the client takes as success, and matvec
// serves on the set the first upload installed.
func TestEnableMatVecRetryAfterInstall(t *testing.T) {
	srv := startServer(t, Model{Matrix: testMatrix, MatrixBias: testMatrixBias})
	client, err := DialWith(srv.Addr(), "mv-retry", []byte("qkd-material"), 43, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.EnableMatVec(); err != nil {
		t.Fatalf("EnableMatVec: %v", err)
	}
	client.rotMu.Lock()
	client.rotInstalled = false // as if the last reply had been lost
	client.rotMu.Unlock()
	if err := client.EnableMatVec(); err != nil {
		t.Fatalf("EnableMatVec after the server installed the set: %v", err)
	}
	x := []float64{0.3, -0.6, 0.9, 0.1}
	got, err := client.MatVec(0, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range plainMatVec(testMatrix, testMatrixBias, x) {
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("matvec slot %d = %v, want %v", i, got[i], want)
		}
	}
}
