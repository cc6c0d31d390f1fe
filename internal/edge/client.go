package edge

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/chacha20"
	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/serve"
	"quhe/internal/transcipher"
)

// RekeyWithdrawBytes is the QKD key material drawn from the key centre
// per transciphering key (initial setup and every rekey).
const RekeyWithdrawBytes = serve.RekeyWithdrawBytes

// Protocol names the wire protocol a Client dials with. ProtoV3 — the
// framed protocol described in doc.go — is the only value: the gob
// generations and the automatic fallback to them are gone, so the field
// selects nothing and exists so DialConfig literals that name the
// protocol keep compiling.
type Protocol int

// ProtoV3 is the framed wire protocol, the one protocol there is.
const ProtoV3 Protocol = iota

// DialConfig carries optional Dial knobs.
type DialConfig struct {
	// Protocol is ProtoV3 (see Protocol).
	Protocol Protocol
	// Profile requests a security profile for the session. Empty lets
	// the server (its control plane's per-route λ plan) steer; a concrete
	// ID is granted or downgraded per the active plan — Client.Profile
	// reports what the session actually runs.
	Profile string
	// RequestTimeout bounds the wait for each reply — a Compute, a MatVec,
	// a Rekey, each item of a ComputeBatch. Expiry abandons the request (a
	// late reply is dropped) and fails the call with an error wrapping
	// serve.ErrDeadline. 0 = no deadline.
	RequestTimeout time.Duration
	// Tracer, when set, collects client-side spans (dial, handshake,
	// keygen, setup, mask/submit/wait per sampled compute, rekey) into
	// the shared internal/obs trace model. Sampled blocks
	// carry their trace context on the wire, so the server's stage spans
	// land in the same trace. nil = untraced.
	Tracer *obs.Tracer
	// TraceSample is the fraction of Compute requests sampled into full
	// traces when Tracer is set (≤ 0 or > 1 = 1.0, i.e. every block).
	// Lifecycle spans are always recorded — they are rare and each one
	// explains a latency cliff.
	TraceSample float64

	// dialer, when set, establishes the transport connection in place of
	// plain TCP: the seam the fault-injection tests dial through.
	dialer func(network, addr string) (net.Conn, error)
}

// Client-side timing and retry constants (see DialConfig).
const (
	defaultDialTimeout = 5 * time.Second
	// defaultRetryBudget caps the transparent resends of the unified retry
	// policy — requests refused for their key epoch or byte budget —
	// before the typed error surfaces to the caller.
	defaultRetryBudget = 3
)

// negotiateTimeout bounds each reply of the client's opening (the profile
// grant, the Setup verdict), which it reads before its read loop exists. A
// peer speaking another version closes at once, so the deadline only bites
// against a hung or silent one.
const negotiateTimeout = 5 * time.Second

// Client is a QuHE edge client node: it owns the HE secret key, masks data
// under the QKD-derived symmetric key, and decrypts the server's encrypted
// results. One Client drives one TCP connection, and its session lives
// exactly as long as that connection: once the connection is lost every
// call fails with an error wrapping serve.ErrConnClosed, and the caller
// dials again. ComputeAsync/ComputeBatch keep multiple requests in flight
// and a reader goroutine matches out-of-order replies by request ID. Safe
// for concurrent use.
type Client struct {
	sessionID string
	dcfg      DialConfig

	// prof is the security profile the server granted and the session
	// runs on.
	prof *profile.Profile

	conn net.Conn
	fw   *frameWriter

	// mvDim is the server's packed model matrix dimension, learned from
	// the Setup reply (0 = the server holds no matrix). seed is kept so
	// the rotation-key generation in EnableMatVec derives from the same
	// deterministic stream as the dial-time keygen.
	mvDim int
	seed  int64
	// rotMu guards rotInstalled: EnableMatVec uploads the Galois keys at
	// most once per client (they live on the server-side session).
	rotMu        sync.Mutex
	rotInstalled bool
	// tracer emits client-side spans (nil = untraced).
	tracer *clientTracer

	closeOnce sync.Once
	closeErr  error

	// rng draws trace IDs and sampling decisions; seeded, so a run traces
	// reproducibly per client.
	rngMu sync.Mutex
	rng   *rand.Rand
	// retries counts transparent resends under the unified retry policy.
	retries atomic.Int64

	ctx     *ckks.Context
	cipher  *transcipher.Cipher
	encoder *ckks.Encoder

	// evMu guards the evaluator (shared scratch buffers and RNG): key
	// encryption on dial/rekey and result decryption on Wait.
	evMu sync.Mutex
	ev   *ckks.Evaluator
	sk   *ckks.SecretKey
	pk   *ckks.PublicKey

	// kc, when attached via DialQKDWith, sources rekey withdrawals.
	kc      *qkd.KeyCenter
	rekeyMu sync.Mutex

	keyMu sync.Mutex
	key   []float64
	nonce []byte
	epoch uint64

	nextID  atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]*call
	readErr error

	// statMu guards the modeled-delay echoes and the rekey advice.
	// rekeyAdvisedEpoch is the key epoch the server's advice applied to
	// (0 = none): tagging the advice with its epoch keeps a stale reply —
	// one that raced a completed rekey — from triggering a second,
	// wasteful rotation.
	statMu            sync.Mutex
	rekeyAdvisedEpoch uint64

	// LastTxDelay and LastCmpDelay echo the server's modeled costs of the
	// most recently completed call: upload time at the modeled uplink
	// rate, and the profile registry's price of the blocks served
	// (profile.BlockCycles at profile.RefHz), in seconds. They are only
	// meaningful when read with no request in flight.
	LastTxDelay  float64
	LastCmpDelay float64
}

// call is one in-flight request: its ID and its reply channel, closed
// without a reply when the connection fails.
type call struct {
	id uint64
	ch chan replyEnvelope
}

// DialWith connects to an edge server, generates the client's HE keys,
// derives the transciphering key from qkdKey (e.g. material withdrawn from
// the qkd.KeyCenter), and registers the session. The zero DialConfig asks
// for the server's default profile.
func DialWith(addr, sessionID string, qkdKey []byte, seed int64, cfg DialConfig) (*Client, error) {
	return dialAttempt(addr, sessionID, qkdKey, nil, seed, cfg, 0)
}

// DialQKDWith is DialWith with the key plane attached: once the server has
// granted the session's profile, the initial transciphering key is
// withdrawn from the key centre's pool for sessionID, attributed to the
// granted profile, and the key centre stays attached so Rekey (and the
// automatic rekey on serve.ErrRekeyRequired) can draw fresh material. A
// dial refused before the grant — locally for an unknown profile, or at
// the profile query (a duplicate session ID, a denied profile) — spends no
// key. One refused at Setup has spent it: the control plane admits a
// session there, against the pool the withdrawal drew from.
func DialQKDWith(addr, sessionID string, kc *qkd.KeyCenter, seed int64, cfg DialConfig) (*Client, error) {
	if kc == nil {
		return nil, errors.New("edge: nil key centre")
	}
	return dialAttempt(addr, sessionID, nil, kc, seed, cfg, 0)
}

// dialAttempt runs the client's half of the opening on a fresh connection:
// the profile query, the key centre's withdrawal when qkdKey is nil, key
// generation for the granted profile, then Setup — each reply read here,
// before the read loop starts. A Setup refused because the grant went
// stale (a replan moved the route's λ mid-dial) is retried from scratch
// (fresh connection, fresh grant, fresh keys, the QKD key already drawn) a
// bounded number of times before the typed denial surfaces.
func dialAttempt(addr, sessionID string, qkdKey []byte, kc *qkd.KeyCenter, seed int64, dcfg DialConfig, attempt int) (*Client, error) {
	if sessionID == "" {
		return nil, errors.New("edge: empty session id")
	}
	if seed == 0 {
		seed = 1
	}
	reg := profile.Default()
	if dcfg.Profile != "" {
		if _, ok := reg.Get(dcfg.Profile); !ok {
			return nil, fmt.Errorf("edge: %w: unknown profile %q", serve.ErrProfileDenied, dcfg.Profile)
		}
	}

	dialStart := time.Now()
	var conn net.Conn
	var err error
	if dcfg.dialer != nil {
		conn, err = dcfg.dialer("tcp", addr)
	} else {
		conn, err = net.DialTimeout("tcp", addr, defaultDialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("edge: dial: %w", err)
	}
	dialDur := time.Since(dialStart)
	br := bufio.NewReaderSize(conn, wireBufSize)
	fw := newFrameWriter(conn, func() { conn.Close() }, nil)
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	fail := func(err error) (*Client, error) {
		conn.Close()
		return nil, err
	}
	// Profile resolution happens before key generation and the withdrawal,
	// so a plan-steered or downgraded profile never costs a wasted keygen
	// and a refused one spends no QKD key. The query is the connection's
	// first frame: a peer that does not answer it in this frame version is
	// not a server of this protocol.
	handshakeStart := time.Now()
	rep, err := exchange(fw, conn, br, buf, frameProfile, func(b []byte) []byte {
		return appendProfileRequest(b, &ProfileRequest{SessionID: sessionID, Requested: dcfg.Profile})
	})
	if err != nil {
		return fail(fmt.Errorf("%w (profile query: %v)", ErrProtocolMismatch, err))
	}
	if rep, err = sessionReply("profile", rep); err != nil {
		return fail(err)
	}
	prof, ok := reg.Get(rep.Profile)
	if !ok {
		return fail(fmt.Errorf("edge: %w: server granted unknown profile %q", serve.ErrProfileDenied, rep.Profile))
	}
	handshakeDur := time.Since(handshakeStart)
	if qkdKey == nil {
		qkdKey, err = kc.WithdrawAttributed(sessionID, RekeyWithdrawBytes, qkd.Attribution{
			Profile: prof.ID, Cause: qkd.CauseSetup,
		})
		if err != nil {
			return fail(fmt.Errorf("edge: qkd withdraw: %w", err))
		}
	}

	keygenStart := time.Now()
	ctx, err := prof.Context()
	if err != nil {
		return fail(fmt.Errorf("edge: context: %w", err))
	}
	cipher, err := transcipher.New(ctx, KeyLen)
	if err != nil {
		return fail(fmt.Errorf("edge: cipher: %w", err))
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := ckks.NewEvaluator(ctx, seed+1)

	key, err := cipher.DeriveKey(qkdKey)
	if err != nil {
		return fail(fmt.Errorf("edge: derive key: %w", err))
	}
	encKey, err := cipher.EncryptKey(ev, pk, key)
	if err != nil {
		return fail(fmt.Errorf("edge: encrypt key: %w", err))
	}
	keygenDur := time.Since(keygenStart)

	nonce := nonceFor(sessionID, 1)
	setupStart := time.Now()
	rep, err = exchange(fw, conn, br, buf, frameSetup, func(b []byte) []byte {
		return appendSetupRequest(b, &SetupRequest{RLK: rlk, EncKey: encKey, Nonce: nonce})
	})
	if err != nil {
		return fail(fmt.Errorf("edge: setup: %w: %v", serve.ErrConnClosed, err))
	}
	if rep, err = sessionReply("setup", rep); err != nil {
		conn.Close()
		if errors.Is(err, serve.ErrProfileDenied) && attempt < 2 {
			return dialAttempt(addr, sessionID, qkdKey, kc, seed, dcfg, attempt+1)
		}
		return nil, err
	}

	c := &Client{
		sessionID: sessionID,
		dcfg:      dcfg,
		conn:      conn,
		fw:        fw,
		prof:      prof,
		mvDim:     rep.MatVecDim,
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		ctx:       ctx,
		cipher:    cipher,
		encoder:   ckks.NewEncoder(ctx),
		ev:        ev,
		sk:        sk,
		pk:        pk,
		kc:        kc,
		key:       key,
		nonce:     nonce,
		epoch:     1,
		pending:   make(map[uint64]*call),
	}
	c.tracer = newClientTracer(dcfg.Tracer, sessionID, dcfg.TraceSample, func() uint64 {
		c.rngMu.Lock()
		v := c.rng.Uint64()
		c.rngMu.Unlock()
		return v
	})
	go c.readLoop(br)
	// The dial trace: one client-lane record covering the whole session
	// establishment, split into its expensive stages.
	if cs := c.tracer.begin(obs.TraceContext{}, 0, 0, dialStart); cs != nil {
		cs.spanDur(cstageDial, dialStart, dialDur)
		cs.spanDur(cstageHandshake, handshakeStart, handshakeDur)
		cs.spanDur(cstageKeygen, keygenStart, keygenDur)
		cs.span(cstageSetup, setupStart)
		cs.finish()
	}
	return c, nil
}

// exchange sends one frame of the opening and reads the server's verdict
// under negotiateTimeout. Anything but a session reply that decodes is an
// error; a refusal is the caller's to read (sessionReply).
func exchange(fw *frameWriter, conn net.Conn, br *bufio.Reader, buf *[]byte, ftype byte, build func(b []byte) []byte) (*SessionReply, error) {
	if err := fw.sendFrame(ftype, 0, build); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(negotiateTimeout))
	defer conn.SetReadDeadline(time.Time{})
	rtype, _, payload, err := readFrame(br, buf)
	if err != nil {
		return nil, err
	}
	if rtype != frameSessionReply {
		return nil, fmt.Errorf("%w: frame type %d in the opening", ErrBadFrame, rtype)
	}
	return decodeSessionReply(payload)
}

// sessionReply reads a session reply the one way every caller does: a
// missing reply is malformed, and a refusal is the typed error of its code
// (replyError), named for the request it answers.
func sessionReply(what string, rep *SessionReply) (*SessionReply, error) {
	if rep == nil {
		return nil, fmt.Errorf("edge: %s: malformed reply", what)
	}
	if err := replyError(rep.Code, rep.Err); err != nil {
		return nil, fmt.Errorf("edge: %s rejected: %w", what, err)
	}
	return rep, nil
}

// nonceFor derives the per-epoch masking nonce: epoch and a session-ID
// hash packed into the cipher's 12-byte nonce space, so rekeys never
// reuse a (key, nonce) pair even for long session IDs.
func nonceFor(sessionID string, epoch uint64) []byte {
	h := fnv.New32a()
	h.Write([]byte(sessionID))
	nonce := make([]byte, chacha20.NonceSize)
	binary.LittleEndian.PutUint64(nonce[:8], epoch)
	binary.LittleEndian.PutUint32(nonce[8:], h.Sum32())
	return nonce
}

// replyError reconstructs a typed error from a wire code and detail, so
// callers can branch with errors.Is against the serve sentinels. Key
// exhaustion carries its retry-after hint across the wire in the detail
// string; rebuild the structured form so serve.RetryAfter works
// client-side.
func replyError(code serve.Code, detail string) error {
	if code == serve.CodeKeyExhausted {
		return fmt.Errorf("edge: server: %w", serve.ParseKeyExhausted(detail))
	}
	sentinel := code.Err()
	if sentinel == nil {
		if detail == "" {
			return nil
		}
		return fmt.Errorf("edge: server: %s", detail)
	}
	if detail == "" {
		return fmt.Errorf("edge: server: %w", sentinel)
	}
	return fmt.Errorf("edge: server: %w: %s", sentinel, detail)
}

// teardown closes the transport exactly once; the read loop's terminal
// path and Close both funnel through it, so there is no double-close race
// between them.
func (c *Client) teardown() {
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
}

// failPending fails every in-flight request with err (the first failure
// wins).
func (c *Client) failPending(err error) {
	c.pendMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, cl := range c.pending {
		delete(c.pending, id)
		close(cl.ch)
	}
	c.pendMu.Unlock()
}

// deliver hands a reply to the request waiting on its ID.
func (c *Client) deliver(reply replyEnvelope) {
	c.pendMu.Lock()
	cl := c.pending[reply.ID]
	delete(c.pending, reply.ID)
	c.pendMu.Unlock()
	if cl != nil {
		cl.ch <- reply
	}
}

// readLoop dispatches replies to their waiting requests by ID until the
// connection fails, then fails every pending request with an error
// wrapping serve.ErrConnClosed, so callers can branch on the failure class.
func (c *Client) readLoop(br *bufio.Reader) {
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	for {
		ftype, id, payload, err := readFrame(br, buf)
		if err == nil {
			err = c.handleFrame(ftype, id, payload)
		}
		if err != nil {
			c.failPending(fmt.Errorf("edge: recv: %w: %v", serve.ErrConnClosed, err))
			c.teardown()
			return
		}
	}
}

// handleFrame decodes one reply and hands it to its waiting request: every
// per-block op replies in the Compute layout, every other request in the
// session layout.
func (c *Client) handleFrame(ftype byte, id uint64, payload []byte) error {
	reply := replyEnvelope{ID: id}
	var err error
	switch ftype {
	case frameComputeReply:
		reply.Compute, err = decodeComputeReply(payload)
	case frameSessionReply:
		reply.Session, err = decodeSessionReply(payload)
	default:
		err = fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, ftype)
	}
	if err == nil {
		c.deliver(reply)
	}
	return err
}

// send registers a fresh request ID, sends the session frame of type
// ftype whose payload build appends under it, and returns the call its
// reply will arrive on.
func (c *Client) send(ftype byte, build func(b []byte) []byte) (*call, error) {
	id := c.nextID.Add(1)
	cl := &call{id: id, ch: make(chan replyEnvelope, 1)}
	c.pendMu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.pendMu.Unlock()
		return nil, err
	}
	c.pending[id] = cl
	c.pendMu.Unlock()

	if err := c.fw.sendFrame(ftype, id, build); err != nil {
		c.pendMu.Lock()
		delete(c.pending, id)
		c.pendMu.Unlock()
		// A failed transport write means the connection is done; type it so
		// callers branch on the failure class, not the raw socket error.
		return nil, fmt.Errorf("edge: send: %w: %v", serve.ErrConnClosed, err)
	}
	return cl, nil
}

// wait blocks for the reply subject to the configured RequestTimeout;
// expiry abandons the request (a late reply is dropped) and fails with an
// error wrapping serve.ErrDeadline.
func (c *Client) wait(cl *call) (replyEnvelope, error) {
	var timeout <-chan time.Time
	if d := c.dcfg.RequestTimeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case reply, ok := <-cl.ch:
		if !ok {
			// The read loop records the connection's error before it closes
			// any channel.
			c.pendMu.Lock()
			defer c.pendMu.Unlock()
			return replyEnvelope{}, c.readErr
		}
		return reply, nil
	case <-timeout:
		c.abandon(cl)
		return replyEnvelope{}, fmt.Errorf("edge: %w: no reply within %v", serve.ErrDeadline, c.dcfg.RequestTimeout)
	}
}

// abandon deregisters a call whose waiter gave up.
func (c *Client) abandon(cl *call) {
	c.pendMu.Lock()
	delete(c.pending, cl.id)
	c.pendMu.Unlock()
}

func (c *Client) roundTrip(ftype byte, build func(b []byte) []byte) (replyEnvelope, error) {
	cl, err := c.send(ftype, build)
	if err != nil {
		return replyEnvelope{}, err
	}
	return c.wait(cl)
}

// Close tears down the connection; pending requests fail with an error
// wrapping serve.ErrConnClosed.
func (c *Client) Close() error {
	c.teardown()
	return c.closeErr
}

// Profile reports the security profile the session runs on: what the
// server granted, which may be a downgrade of DialConfig.Profile.
func (c *Client) Profile() string { return c.prof.ID }

// Slots returns the per-block capacity.
func (c *Client) Slots() int { return c.cipher.Slots() }

// SessionID returns the session this client registered.
func (c *Client) SessionID() string { return c.sessionID }

// Epoch returns the client's current key epoch.
func (c *Client) Epoch() uint64 {
	c.keyMu.Lock()
	defer c.keyMu.Unlock()
	return c.epoch
}

// mask masks data, zero-padded to the block, into dst under a consistent
// snapshot of the current key material, returning the masked block and
// the epoch it was masked under. A nil dst allocates the block; dst may
// alias data.
func (c *Client) mask(block uint32, data, dst []float64) ([]float64, uint64, error) {
	if dst == nil {
		dst = make([]float64, c.Slots())
	}
	c.keyMu.Lock()
	key, nonce, epoch := c.key, c.nonce, c.epoch
	c.keyMu.Unlock()
	if err := c.cipher.MaskInto(dst, key, nonce, block, data); err != nil {
		return nil, 0, fmt.Errorf("edge: mask: %w", err)
	}
	return dst, epoch, nil
}

// decodeBuf is one decryption's working set: the plaintext a reply
// decrypts into and the FFT space (N/2 entries) it decodes through. Both
// are sized on use, so one pool serves clients of every profile.
type decodeBuf struct {
	pt   ckks.Plaintext
	work []complex128
}

// decodeBufs holds the working sets of decrypt, one per concurrent Wait
// process-wide. It is a package-level pool, not a Client field: a pool
// stays referenced by the runtime for two collections after its last
// use, and a pool inside the Client would keep a closed client — its
// evaluator and keys included — alive that long.
var decodeBufs = sync.Pool{New: func() any { return new(decodeBuf) }}

// decrypt recovers the first n slot values of an encrypted result and
// returns its ciphertext to the reply pool. Only the decryption, which
// runs on the evaluator's scratch, holds evMu; the decode runs on a
// pooled working set, so concurrent Waits decode in parallel.
func (c *Client) decrypt(ct *ckks.Ciphertext, n int) ([]float64, error) {
	buf := decodeBufs.Get().(*decodeBuf)
	defer decodeBufs.Put(buf)
	c.evMu.Lock()
	err := c.ev.DecryptInto(c.sk, ct, &buf.pt)
	c.evMu.Unlock()
	replyPool.Put(ct)
	if err != nil {
		return nil, fmt.Errorf("edge: decrypt: %w", err)
	}
	size := c.ctx.Params.Slots()
	if cap(buf.work) < size {
		buf.work = make([]complex128, size)
	}
	out := make([]float64, n)
	if err := c.encoder.DecodeRealInto(&buf.pt, buf.work[:size], out); err != nil {
		return nil, fmt.Errorf("edge: decode: %w", err)
	}
	return out, nil
}

func (c *Client) noteReply(tx, cmp float64, rekeyNeeded bool, epoch uint64) {
	c.statMu.Lock()
	c.LastTxDelay, c.LastCmpDelay = tx, cmp
	if rekeyNeeded {
		c.rekeyAdvisedEpoch = epoch
	}
	c.statMu.Unlock()
}

// RekeyAdvised reports whether the server has flagged the key byte budget
// as nearly exhausted for the client's current key epoch.
func (c *Client) RekeyAdvised() bool {
	c.statMu.Lock()
	advised := c.rekeyAdvisedEpoch
	c.statMu.Unlock()
	return advised != 0 && advised == c.Epoch()
}

// Pending is one in-flight per-block request (Compute or MatVec).
type Pending struct {
	c     *Client
	cl    *call
	n     int
	block uint32
	epoch uint64
	// spans is the block's client-side trace (nil when unsampled);
	// sendDone anchors the wait span.
	spans    *clientSpans
	sendDone time.Time
}

// Epoch returns the key epoch the request's block was masked under — pass
// it to RekeyIfEpoch when Wait fails with serve.ErrRekeyRequired.
func (p *Pending) Epoch() uint64 { return p.epoch }

// ComputeAsync masks one block and sends it without waiting: multiple
// requests may be in flight on the connection, and the server fans them
// out across its worker pool. block must be unique per call within a
// session and key epoch.
func (c *Client) ComputeAsync(block uint32, data []float64) (*Pending, error) {
	if len(data) > c.Slots() {
		return nil, fmt.Errorf("edge: %d values exceed %d slots", len(data), c.Slots())
	}
	return c.submit(frameCompute, block, data, nil, len(data))
}

// submit masks one block and sends it as a request of the given per-block
// op without waiting — the body ComputeAsync and MatVecAsync share. n is
// how many leading result slots Wait hands back.
func (c *Client) submit(op byte, block uint32, data, dst []float64, n int) (*Pending, error) {
	start := time.Now()
	tc := c.tracer.sampleTrace()
	var spans *clientSpans
	if tc.Valid() {
		spans = c.tracer.begin(tc, block, 0, start)
	}
	masked, epoch, err := c.mask(block, data, dst)
	if err != nil {
		return nil, err
	}
	spans.span(cstageMask, start)
	submitStart := time.Now()
	req := ComputeRequest{Block: block, Masked: masked, Epoch: epoch, Trace: tc}
	cl, err := c.send(op, func(b []byte) []byte { return appendComputeRequest(b, &req) })
	if err != nil {
		return nil, err
	}
	spans.span(cstageSubmit, submitStart)
	if spans != nil {
		spans.bt.ReqID = cl.id
	}
	return &Pending{
		c: c, cl: cl, n: n, block: block, epoch: epoch,
		spans: spans, sendDone: time.Now(),
	}, nil
}

// Wait blocks for the reply and decrypts the result. Server-side
// failures carry typed codes: errors.Is against serve.ErrOverloaded,
// serve.ErrRekeyRequired, serve.ErrUnknownSession, ... selects the class.
func (p *Pending) Wait() ([]float64, error) {
	rep, err := p.reply()
	if err != nil {
		return nil, err
	}
	return p.c.decrypt(rep.Result, p.n)
}

// reply blocks for the server's answer: a reply carrying a result, or the
// typed failure.
func (p *Pending) reply() (*ComputeReply, error) {
	reply, err := p.c.wait(p.cl)
	if p.spans != nil {
		p.spans.span(cstageWait, p.sendDone)
		p.spans.finish()
		p.spans = nil
	}
	if err != nil {
		return nil, err
	}
	rep := reply.Compute
	if rep == nil {
		return nil, errors.New("edge: malformed reply")
	}
	p.c.noteReply(rep.ModeledTxDelay, rep.ModeledCmpDelay, rep.RekeyNeeded, p.epoch)
	if err := replyError(rep.Code, rep.Err); err != nil {
		return nil, err
	}
	if rep.Result == nil {
		return nil, errors.New("edge: malformed reply: missing result")
	}
	return rep, nil
}

// rekeyedFor is the unified retry policy's one decision: a request masked
// under epoch and refused with err may be resent when the refusal is the
// server demanding a rekey, the retry budget is not spent, and the key
// has rotated past epoch — by another goroutine, or by the withdrawal made
// here (which needs a key centre). It counts the retry. The resend goes out
// at once: the epoch moves only once the server's Rekey reply has
// confirmed the new key, so there is no rotation left to wait for.
func (c *Client) rekeyedFor(err error, epoch uint64, attempt int) bool {
	if !errors.Is(err, serve.ErrRekeyRequired) || attempt >= defaultRetryBudget || c.RekeyIfEpoch(epoch) != nil {
		return false
	}
	c.retries.Add(1)
	return true
}

// Compute runs one full pipeline round: mask data under the symmetric key,
// upload, let the server transcipher + infer, then decrypt the encrypted
// result locally. block must be unique per call within a session and key
// epoch. With a key centre attached (DialQKDWith), Compute rekeys
// transparently: proactively when the server advises the byte budget is
// nearly spent, and under the retry budget when the server demands it.
func (c *Client) Compute(block uint32, data []float64) ([]float64, error) {
	return c.retryLoop(func() (*Pending, error) { return c.ComputeAsync(block, data) })
}

// retryLoop is the unified retry policy shared by the synchronous
// single-block entry points (Compute, MatVec): submit, wait, and resend
// once the key has rotated when the server demands a rekey.
func (c *Client) retryLoop(submit func() (*Pending, error)) ([]float64, error) {
	for attempt := 0; ; attempt++ {
		p, err := submit()
		if err != nil {
			return nil, err
		}
		out, err := p.Wait()
		if err != nil {
			if c.rekeyedFor(err, p.Epoch(), attempt) {
				continue
			}
			return nil, err
		}
		if c.RekeyAdvised() && c.kc != nil {
			// Best-effort proactive rotation; a failure (e.g. depleted
			// pool) surfaces on the next hard budget rejection.
			_ = c.RekeyIfEpoch(p.Epoch())
		}
		return out, nil
	}
}

// MatVecDim reports the dimension of the server's packed model matrix:
// the vector length MatVec accepts and the rotation set EnableMatVec
// generates keys for. Zero means the server holds no matrix and encrypted
// matvec is unavailable.
func (c *Client) MatVecDim() int { return c.mvDim }

// EnableMatVec generates the Galois rotation keys the server's hoisted
// BSGS matrix–vector kernel needs (ckks.BSGSRotations of the advertised
// dimension: the baby steps 1…n1−1 and the one giant step n1 its Horner
// chain repeats, n1 keys) and uploads them to the server-side session,
// which installs them as one set once the last has arrived. Call once after Dial, before
// the first MatVec; repeated calls are no-ops. The keys stream one per
// RotKeys frame, each generated into the same storage and sent without
// waiting for the previous reply, so neither end ever holds more than one
// key in flight; the call then waits for every reply, and the first
// refusal is its error. The keys are public evaluation material: they
// live on the session, through every rekey. A retry after a failed call
// succeeds when only replies were lost (RequestTimeout) and the server did
// install the set: its "already installed" refusal means the keys are in
// place. Fails with an error wrapping serve.ErrMatVecUnavailable when the
// server holds no matrix.
func (c *Client) EnableMatVec() error {
	if c.mvDim == 0 {
		return fmt.Errorf("edge: %w: server holds no model matrix", serve.ErrMatVecUnavailable)
	}
	c.rotMu.Lock()
	defer c.rotMu.Unlock()
	if c.rotInstalled {
		return nil
	}
	// Rotation-key generation is pure public-material derivation from the
	// secret key (read-only after dial); the offset keeps the generator's
	// stream disjoint from the dial-time keygen and evaluator streams. The
	// keys come out as GenGaloisKeys would build them, in its order. Each
	// send copies the key into its frame before returning, so the next key
	// may overwrite the storage.
	kg := ckks.NewKeyGenerator(c.ctx, c.seed+2)
	req := &RotKeysRequest{Key: new(ckks.GaloisKey)}
	var calls []*call
	var err error
	for _, rot := range ckks.KeyRotations(c.ctx.Params.N(), ckks.BSGSRotations(c.mvDim)) {
		kg.GenGaloisKeyInto(c.sk, rot, req.Key)
		cl, serr := c.send(frameRotKeys, func(b []byte) []byte { return appendRotKeysRequest(b, req) })
		if serr != nil {
			err = fmt.Errorf("edge: rotation keys: %w", serr)
			break
		}
		calls = append(calls, cl)
	}
	for _, cl := range calls {
		reply, werr := c.wait(cl)
		if err != nil {
			continue
		}
		switch rep := reply.Session; {
		case werr != nil:
			err = fmt.Errorf("edge: rotation keys: %w", werr)
		case rep != nil && rep.Code == serve.CodeBadRequest && strings.HasSuffix(rep.Err, rotKeysInstalled):
			// A retry whose earlier upload the server did install.
		default:
			_, err = sessionReply("rotation keys", rep)
		}
	}
	if err != nil {
		return err
	}
	c.rotInstalled = true
	return nil
}

// MatVec runs one encrypted matrix–vector round: mask the input vector
// under the symmetric key, upload, let the server transcipher and apply
// its packed model matrix with the hoisted BSGS kernel under the
// session's rotation keys, then decrypt the product locally. data holds
// up to MatVecDim values (shorter vectors are zero-padded); the result
// always has MatVecDim values. block must be unique per call within a
// session and key epoch, sharing the Compute block space. Requires
// EnableMatVec first; rekeys transparently like Compute.
func (c *Client) MatVec(block uint32, data []float64) ([]float64, error) {
	return c.retryLoop(func() (*Pending, error) { return c.MatVecAsync(block, data) })
}

// MatVecAsync masks one input vector and sends it without waiting,
// mirroring ComputeAsync. The vector is replicated across the slot space
// (slot j carries v[j mod dim]) because the BSGS kernel's giant-step
// windows read the full vector at every offset.
func (c *Client) MatVecAsync(block uint32, data []float64) (*Pending, error) {
	dim := c.mvDim
	if dim == 0 {
		return nil, fmt.Errorf("edge: %w: server holds no model matrix", serve.ErrMatVecUnavailable)
	}
	if len(data) > dim {
		return nil, fmt.Errorf("edge: %d values exceed matrix dimension %d", len(data), dim)
	}
	full := make([]float64, c.Slots())
	for j := range full {
		if k := j % dim; k < len(data) {
			full[j] = data[k]
		}
	}
	return c.submit(frameMatVec, block, full, full, dim)
}

// ComputeBatch masks blocks start..start+len(data)-1 and pipelines them
// as ordinary Compute requests — ComputeAsync per item, then Wait per
// item — so the server fans them out across its pool under the
// connection's window and each reply streams back as its worker
// finishes. Results are in input order; items fail independently (e.g.
// shed with serve.ErrOverloaded), in which case their slots are nil and
// the first failure is returned as a typed error alongside the partial
// results. Each item carries the epoch it was masked under, so a key
// rotation in mid-batch only refuses the stale items, and those — like
// items refused for the key byte budget — are resent under the new key
// within the retry budget. LastTxDelay and LastCmpDelay then report the
// served items' modeled delays summed.
func (c *Client) ComputeBatch(start uint32, data [][]float64) ([][]float64, error) {
	out := make([][]float64, len(data))
	pend := make([]*Pending, len(data))
	errs := make([]error, len(data))
	var tx, cmp float64
	served := 0
	for attempt := 0; ; attempt++ {
		for i, d := range data {
			if out[i] == nil {
				pend[i], errs[i] = c.ComputeAsync(start+uint32(i), d)
			}
		}
		first := -1
		for i := range data {
			if out[i] != nil {
				continue
			}
			if errs[i] == nil {
				var rep *ComputeReply
				if rep, errs[i] = pend[i].reply(); errs[i] == nil {
					if out[i], errs[i] = c.decrypt(rep.Result, len(data[i])); errs[i] == nil {
						tx, cmp = rep.ModeledTxDelay, rep.ModeledCmpDelay
						served++
						continue
					}
				}
			}
			if first < 0 {
				first = i
			}
		}
		// Every item is priced alike (same padded block, no rotations).
		c.noteReply(float64(served)*tx, float64(served)*cmp, false, 0)
		if first < 0 {
			return out, nil
		}
		err := fmt.Errorf("edge: batch item %d: %w", first, errs[first])
		if pend[first] == nil || !c.rekeyedFor(err, pend[first].Epoch(), attempt) {
			return out, err
		}
	}
}

// Rekey withdraws fresh QKD material from the attached key centre and
// rotates the session's transciphering key. Requires DialQKDWith. A depleted
// pool fails with a *serve.KeyExhaustedError (wrapping
// serve.ErrKeyExhausted) whose RetryAfter estimates when the pool's
// provisioning rate will have covered the shortfall.
func (c *Client) Rekey() error {
	c.rekeyMu.Lock()
	defer c.rekeyMu.Unlock()
	return c.rekeyLocked(qkd.CauseReplan)
}

// RekeyIfEpoch rotates the key only if the client is still at the given
// epoch, collapsing the rekey attempts of many concurrently failed
// in-flight requests into a single withdrawal: the first failure rotates,
// the rest see the bumped epoch and simply retry under the new key.
// Requires DialQKDWith.
func (c *Client) RekeyIfEpoch(epoch uint64) error {
	c.rekeyMu.Lock()
	defer c.rekeyMu.Unlock()
	if c.Epoch() != epoch {
		return nil // another request already rotated past this epoch
	}
	return c.rekeyLocked(qkd.CauseBudgetRekey)
}

// rekeyLocked draws fresh material and rotates; callers hold rekeyMu.
// The withdrawal is attributed in the key-flow ledger under cause.
func (c *Client) rekeyLocked(cause string) error {
	if c.kc == nil {
		return errors.New("edge: rekey: no key centre attached (use DialQKDWith)")
	}
	material, err := c.kc.WithdrawAttributed(c.sessionID, RekeyWithdrawBytes, qkd.Attribution{
		Profile: c.prof.ID, Cause: cause,
	})
	if err != nil {
		if errors.Is(err, qkd.ErrInsufficientKey) {
			return fmt.Errorf("edge: rekey withdraw: %w",
				serve.NewKeyExhausted(c.kc.RefillWait(c.sessionID, RekeyWithdrawBytes), err.Error()))
		}
		return fmt.Errorf("edge: rekey withdraw: %w", err)
	}
	return c.rekeyWith(material)
}

// rekeyWith rotates the session's transciphering key using fresh QKD
// material: the new key is derived, HE-encrypted and installed on the
// server, which bumps the session's key epoch and resets its byte budget.
// Requests already in flight under the old epoch are rejected by the
// server with serve.ErrRekeyRequired rather than mis-transciphered.
// Callers hold rekeyMu.
func (c *Client) rekeyWith(qkdKey []byte) error {
	rekeyStart := time.Now()
	key, err := c.cipher.DeriveKey(qkdKey)
	if err != nil {
		return fmt.Errorf("edge: rekey derive: %w", err)
	}
	c.keyMu.Lock()
	nextEpoch := c.epoch + 1
	c.keyMu.Unlock()
	nonce := nonceFor(c.sessionID, nextEpoch)
	c.evMu.Lock()
	encKey, err := c.cipher.EncryptKey(c.ev, c.pk, key)
	c.evMu.Unlock()
	if err != nil {
		return fmt.Errorf("edge: rekey encrypt: %w", err)
	}
	reply, err := c.roundTrip(frameRekey, func(b []byte) []byte {
		return appendRekeyRequest(b, &RekeyRequest{EncKey: encKey, Nonce: nonce})
	})
	if err != nil {
		return err
	}
	rep, err := sessionReply("rekey", reply.Session)
	if err != nil {
		return err
	}
	c.keyMu.Lock()
	c.key, c.nonce, c.epoch = key, nonce, rep.Epoch
	c.keyMu.Unlock()
	c.statMu.Lock()
	c.rekeyAdvisedEpoch = 0
	c.statMu.Unlock()
	c.tracer.event(cstageRekey, rekeyStart)
	return nil
}
