package edge

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/ring"
	"quhe/internal/serve"
	"quhe/internal/transcipher"
)

// installPeer is a hand-rolled client's key material on the default
// profile, for driving Setup and Rekey with keys a real client would
// never send.
type installPeer struct {
	ctx    *ckks.Context
	cipher *transcipher.Cipher
	ev     *ckks.Evaluator
	pk     *ckks.PublicKey
	rlk    *ckks.RelinKey
	key    []float64
}

func newInstallPeer(t *testing.T) *installPeer {
	t.Helper()
	ctx, err := ckks.NewContext(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := transcipher.New(ctx, KeyLen)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 191)
	sk := kg.GenSecretKey()
	p := &installPeer{ctx: ctx, cipher: cipher, ev: ckks.NewEvaluator(ctx, 192),
		pk: kg.GenPublicKey(sk), rlk: kg.GenRelinKey(sk)}
	if p.key, err = cipher.DeriveKey([]byte("install-test")); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *installPeer) encKey(t *testing.T) []*ckks.Ciphertext {
	t.Helper()
	k, err := p.cipher.EncryptKey(p.ev, p.pk, p.key)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func (p *installPeer) setup(id string, encKey []*ckks.Ciphertext) *SetupRequest {
	return &SetupRequest{SessionID: id, LogN: p.ctx.Params.LogN, Depth: p.ctx.Params.Depth,
		PK: p.pk, RLK: p.rlk, EncKey: encKey, Nonce: []byte("edge:install")}
}

// hostileKeys returns the malformed uploads the install step must refuse.
// wireSafe limits them to shapes the v3 codec can carry (it writes one
// degree and level+1 equal limbs per ciphertext; gob carries anything).
func (p *installPeer) hostileKeys(t *testing.T, wireSafe bool) map[string][]*ckks.Ciphertext {
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
	if !wireSafe {
		k = p.encKey(t)
		k[1].C0[1] = k[1].C0[1][:3]
		keys["ragged limb"] = k
		k = p.encKey(t)
		k[6].C1 = k[6].C1[:top]
		keys["missing limb"] = k
	}
	return keys
}

// checkSessions and checkEpoch witness that a rejected install left no
// trace and a good one took.
func checkSessions(t *testing.T, srv *Server, what string, want int) {
	t.Helper()
	if got := srv.Sessions(); got != want {
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

// TestInstallValidationGob drives the two gob generations: v1 envelopes
// (no IDs, Setup only) and v2 envelopes (IDs, Rekey). Unreduced residues
// and ragged shapes are refused with CodeBadRequest at Setup and at
// Rekey, and the refusals leave the store and the live key alone.
func TestInstallValidationGob(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	p := newInstallPeer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)

	// v1: the seed envelope shape. The reply decodes into the current
	// envelope (gob matches fields by name), which exposes the code.
	for name, k := range p.hostileKeys(t, false) {
		req := p.setup("gob-v1", k)
		if err := enc.Encode(&v1Envelope{Setup: &v1SetupRequest{SessionID: req.SessionID, LogN: req.LogN,
			Depth: req.Depth, PK: req.PK, RLK: req.RLK, EncKey: req.EncKey, Nonce: req.Nonce}}); err != nil {
			t.Fatal(err)
		}
		var rep replyEnvelope
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("v1 setup, %s: %v", name, err)
		}
		if rep.Setup == nil || rep.Setup.OK || rep.Setup.Code != serve.CodeBadRequest {
			t.Errorf("v1 setup, %s: reply %+v, want CodeBadRequest", name, rep.Setup)
		}
	}
	checkSessions(t, srv, "after hostile v1 setups", 0)

	// v2: same refusals with request IDs, then a good Setup and hostile
	// Rekeys against it.
	id := uint64(0)
	call := func(env *envelope) *replyEnvelope {
		t.Helper()
		id++
		env.ID = id
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
		var rep replyEnvelope
		if err := dec.Decode(&rep); err != nil {
			t.Fatal(err)
		}
		if rep.ID != id {
			t.Fatalf("reply id %d, want %d", rep.ID, id)
		}
		return &rep
	}
	for name, k := range p.hostileKeys(t, false) {
		rep := call(&envelope{Setup: p.setup("gob-v2", k)})
		if rep.Setup == nil || rep.Setup.OK || rep.Setup.Code != serve.CodeBadRequest {
			t.Errorf("v2 setup, %s: reply %+v, want CodeBadRequest", name, rep.Setup)
		}
	}
	checkSessions(t, srv, "after hostile v2 setups", 0)
	if rep := call(&envelope{Setup: p.setup("gob-v2", p.encKey(t))}); rep.Setup == nil || !rep.Setup.OK {
		t.Fatalf("good v2 setup refused: %+v", rep.Setup)
	}
	for name, k := range p.hostileKeys(t, false) {
		rep := call(&envelope{Rekey: &RekeyRequest{SessionID: "gob-v2", EncKey: k, Nonce: []byte("edge:rekeyed")}})
		if rep.Rekey == nil || rep.Rekey.OK || rep.Rekey.Code != serve.CodeBadRequest {
			t.Errorf("v2 rekey, %s: reply %+v, want CodeBadRequest", name, rep.Rekey)
		}
	}
	checkEpoch(t, srv, "gob-v2", "after hostile rekeys", 1)
	if rep := call(&envelope{Rekey: &RekeyRequest{SessionID: "gob-v2", EncKey: p.encKey(t), Nonce: []byte("edge:rekeyed")}}); rep.Rekey == nil || !rep.Rekey.OK {
		t.Fatalf("good v2 rekey refused: %+v", rep.Rekey)
	}
	checkEpoch(t, srv, "gob-v2", "after the good rekey", 2)
}

// TestInstallValidationV3 is the framed generation's half: every
// malformed key the v3 codec can carry is refused typed at Setup and at
// Rekey, on the same connection, without tearing it down.
func TestInstallValidationV3(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	p := newInstallPeer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, wireBufSize)
	var buf []byte
	id := uint64(0)
	call := func(ftype, want byte, build func(b []byte) []byte) []byte {
		t.Helper()
		id++
		if _, err := conn.Write(buildFrame(t, ftype, id, build)); err != nil {
			t.Fatal(err)
		}
		got, gotID, payload, err := readFrame(br, &buf)
		if err != nil || got != want || (ftype != frameHello && gotID != id) {
			t.Fatalf("frame %d: reply type %d id %d err %v, want type %d id %d", ftype, got, gotID, err, want, id)
		}
		return payload
	}
	call(frameHello, frameHello, func(b []byte) []byte { return append(b, helloFlagProfiles|helloFlagRNSWire) })

	setup := func(k []*ckks.Ciphertext) *SetupReply {
		t.Helper()
		req := p.setup("v3", k)
		rep, err := decodeSetupReply(call(frameSetup, frameSetupReply, func(b []byte) []byte { return appendSetupRequest(b, req) }))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rekey := func(k []*ckks.Ciphertext) *RekeyReply {
		t.Helper()
		req := &RekeyRequest{SessionID: "v3", EncKey: k, Nonce: []byte("edge:rekeyed")}
		rep, err := decodeRekeyReply(call(frameRekey, frameRekeyReply, func(b []byte) []byte { return appendRekeyRequest(b, req) }))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for name, k := range p.hostileKeys(t, true) {
		if rep := setup(k); rep.OK || rep.Code != serve.CodeBadRequest {
			t.Errorf("v3 setup, %s: reply %+v, want CodeBadRequest", name, rep)
		}
	}
	checkSessions(t, srv, "after hostile v3 setups", 0)
	if rep := setup(p.encKey(t)); !rep.OK {
		t.Fatalf("good v3 setup refused: %+v", rep)
	}
	for name, k := range p.hostileKeys(t, true) {
		if rep := rekey(k); rep.OK || rep.Code != serve.CodeBadRequest {
			t.Errorf("v3 rekey, %s: reply %+v, want CodeBadRequest", name, rep)
		}
	}
	checkEpoch(t, srv, "v3", "after hostile rekeys", 1)
	if rep := rekey(p.encKey(t)); !rep.OK || rep.Epoch != 2 {
		t.Fatalf("good v3 rekey: %+v", rep)
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
	client, err := Dial(srv.Addr(), "rotating", []byte("generation-0"), 61)
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
		if err := client.RekeyWith([]byte(fmt.Sprintf("generation-%d", r))); err != nil {
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
