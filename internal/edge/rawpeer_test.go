package edge

import (
	"bufio"
	"net"
	"testing"

	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/transcipher"
)

// rawPeer is a hand-rolled client: a real client's key material on one
// profile (the default unless built by newRawPeerOn) plus, once dialed, a
// connection driven frame by frame — for tests that observe frame order,
// stall the read side, or send what a real Client never would.
type rawPeer struct {
	prof   string
	ctx    *ckks.Context
	cipher *transcipher.Cipher
	ev     *ckks.Evaluator
	sk     *ckks.SecretKey
	pk     *ckks.PublicKey
	rlk    *ckks.RelinKey
	key    []float64
	nonce  []byte

	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	id   uint64
}

func newRawPeer(t testing.TB, seed int64) *rawPeer {
	t.Helper()
	return newRawPeerOn(t, seed, profile.IDDefault)
}

// newRawPeerOn builds a raw peer whose keys and profile query are on
// profile id.
func newRawPeerOn(t testing.TB, seed int64, id string) *rawPeer {
	t.Helper()
	prof, ok := profile.Default().Get(id)
	if !ok {
		t.Fatalf("no profile %q", id)
	}
	ctx, err := prof.Context()
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := transcipher.New(ctx, KeyLen)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	p := &rawPeer{prof: id, ctx: ctx, cipher: cipher, ev: ckks.NewEvaluator(ctx, seed+1),
		sk: sk, pk: kg.GenPublicKey(sk), rlk: kg.GenRelinKey(sk), nonce: []byte("edge:rawpeer")}
	if p.key, err = cipher.DeriveKey([]byte("raw-peer-material")); err != nil {
		t.Fatal(err)
	}
	return p
}

// dial connects; the connection closes with the test. The peer is in its
// opening until a Setup after a granted query registers.
func (p *rawPeer) dial(t testing.TB, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p.conn, p.br = conn, bufio.NewReaderSize(conn, wireBufSize)
}

func (p *rawPeer) send(t testing.TB, ftype byte, id uint64, build func(b []byte) []byte) {
	t.Helper()
	if _, err := p.conn.Write(buildFrame(t, ftype, id, build)); err != nil {
		t.Fatal(err)
	}
}

// recv reads the next frame; the payload is valid until the next recv.
func (p *rawPeer) recv(t testing.TB) (byte, uint64, []byte) {
	t.Helper()
	ftype, id, payload, err := readFrame(p.br, &p.buf)
	if err != nil {
		t.Fatal(err)
	}
	return ftype, id, payload
}

// call sends one request under a fresh ID and returns the payload of its
// reply, which must have type want.
func (p *rawPeer) call(t testing.TB, ftype, want byte, build func(b []byte) []byte) []byte {
	t.Helper()
	p.id++
	p.send(t, ftype, p.id, build)
	got, gotID, payload := p.recv(t)
	if got != want || gotID != p.id {
		t.Fatalf("frame %d: reply type %d id %d, want type %d id %d", ftype, got, gotID, want, p.id)
	}
	return payload
}

func (p *rawPeer) encKey(t testing.TB) []*ckks.Ciphertext {
	t.Helper()
	k, err := p.cipher.EncryptKey(p.ev, p.pk, p.key)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// setupRequest is a Setup of the peer's keys, encKey its transciphering
// key.
func (p *rawPeer) setupRequest(encKey []*ckks.Ciphertext) *SetupRequest {
	return &SetupRequest{RLK: p.rlk, EncKey: encKey, Nonce: p.nonce}
}

// grant sends the profile query for session id, asking for the peer's
// profile, which must be granted: the grant is what the connection's
// next Setup registers.
func (p *rawPeer) grant(t testing.TB, id string) {
	t.Helper()
	rep := p.session(t, frameProfile, func(b []byte) []byte {
		return appendProfileRequest(b, &ProfileRequest{SessionID: id, Requested: p.prof})
	})
	if replyError(rep.Code, rep.Err) != nil || rep.Profile != p.prof {
		t.Fatalf("profile query for %q on %s: %+v", id, p.prof, rep)
	}
}

// session sends one session-lifecycle request of type ftype and returns
// the server's verdict.
func (p *rawPeer) session(t testing.TB, ftype byte, build func(b []byte) []byte) *SessionReply {
	t.Helper()
	rep, err := decodeSessionReply(p.call(t, ftype, frameSessionReply, build))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// setup sends req and returns the server's verdict.
func (p *rawPeer) setup(t testing.TB, req *SetupRequest) *SessionReply {
	t.Helper()
	return p.session(t, frameSetup, func(b []byte) []byte { return appendSetupRequest(b, req) })
}

// register opens session id: its profile query, then a good Setup.
func (p *rawPeer) register(t testing.TB, id string) {
	t.Helper()
	p.grant(t, id)
	if rep := p.setup(t, p.setupRequest(p.encKey(t))); replyError(rep.Code, rep.Err) != nil {
		t.Fatalf("setup of %q refused: %+v", id, rep)
	}
}

// rotKeys returns the RotKeys requests of an upload for a dimension-dim
// model, one rotation key each, in the order a Client sends them,
// generated from seed.
func (p *rawPeer) rotKeys(seed int64, dim int) []*RotKeysRequest {
	kg := ckks.NewKeyGenerator(p.ctx, seed)
	var reqs []*RotKeysRequest
	for _, rot := range ckks.KeyRotations(p.ctx.Params.N(), ckks.BSGSRotations(dim)) {
		reqs = append(reqs, &RotKeysRequest{Key: kg.GenGaloisKey(p.sk, rot)})
	}
	return reqs
}

// uploadKey sends one rotation key and returns the server's verdict.
func (p *rawPeer) uploadKey(t testing.TB, req *RotKeysRequest) *SessionReply {
	t.Helper()
	return p.session(t, frameRotKeys, func(b []byte) []byte { return appendRotKeysRequest(b, req) })
}

// uploadRotKeys uploads every rotation key of the connection's session's
// dimension-dim plan, each of which must be accepted.
func (p *rawPeer) uploadRotKeys(t testing.TB, seed int64, dim int) {
	t.Helper()
	for _, req := range p.rotKeys(seed, dim) {
		if rep := p.uploadKey(t, req); replyError(rep.Code, rep.Err) != nil {
			t.Fatalf("rotation key %d refused: %+v", req.Key.Rot, rep)
		}
	}
}

// mask pads data to a full block and masks it under the peer's key.
func (p *rawPeer) mask(t testing.TB, block uint32, data []float64) []float64 {
	t.Helper()
	padded := make([]float64, p.cipher.Slots())
	copy(padded, data)
	m, err := p.cipher.Mask(p.key, p.nonce, block, padded)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// decrypt recovers the slot values of a result ciphertext.
func (p *rawPeer) decrypt(ct *ckks.Ciphertext) []float64 {
	return ckks.NewEncoder(p.ctx).DecodeReal(p.ev.Decrypt(p.sk, ct))
}
