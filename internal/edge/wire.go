package edge

// Framing and payload codecs. See doc.go for the protocol; the frame is
//
//	offset 0     magic    0xAD 0x51
//	offset 2     version  frameVersion
//	offset 3     type     frameHello, frameSetup, ..., frameSessionReply
//	offset 4     reqID    uint64, little-endian
//	offset 12    length   uint32 payload byte count, little-endian
//	offset 16    payload
//	offset 16+n  crc      CRC32C (Castagnoli) over header and payload
//
// Frames are sized before they are built: a message carrying CKKS key or
// ciphertext material computes its exact payload size from the codecs'
// BinarySize and grows its pooled buffer once, checksum trailer
// included, so a megabyte key frame costs at most one allocation of its
// own size instead of a geometric series of them. Frames are written
// through one bufio.Writer per connection under a mutex, so a frame reaches the
// socket as a single coalesced write and concurrent senders (the server's
// reply writer and its decode loop answering setups, a client's callers)
// interleave at frame granularity — the per-connection fairness point.
// Payload decoding copies everything it returns, so the read buffer is
// reused for the next frame immediately. There is one codec pair per
// request type and one per reply type, and two reply types: ComputeReply
// for every per-block op and SessionReply for everything else.

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"sync"

	"quhe/internal/he/ckks"
	"quhe/internal/obs"
	"quhe/internal/serve"
)

const (
	frameMagic0 = 0xAD
	frameMagic1 = 0x51
	// frameVersion names the one wire format both endpoints speak: frame
	// layout, payload fields and the residue-tower ciphertext encoding
	// together. Any incompatible change bumps it; a peer that opens with
	// another value is closed, never negotiated with. (3 was the last
	// version with optional trailers and hello feature flags, 4 the last
	// with batch frames, 5 the last with a public key in Setup and both
	// switching-key components on the wire, 6 the last to upload a whole
	// rotation-key set in one frame, 7 the last with a reply frame per
	// session request and per op, 8 the last with a key per giant block,
	// 9 the last whose blocks read one coefficient stream per nonce at
	// overlapping offsets, 10 the last with depth-4 chains.)
	frameVersion = 11

	frameHeaderLen = 16

	// maxFramePayload bounds a frame so a corrupt or hostile length field
	// cannot force a huge allocation, and it is also the largest frame
	// buffer the pool keeps. Every legal frame fits whatever the model: the
	// largest is a λ-128k Setup (2,752,841 payload bytes, mostly its
	// relinearization key), then a λ-128k Rekey (2,097,380), then one
	// λ-128k rotation key (655,518) — rotation keys travel one per frame,
	// so the model dimension sets the number of RotKeys frames, not their
	// size. TestEveryLegalFrameFits sizes them on every profile.
	maxFramePayload = 4 << 20

	// wireBufSize sizes the per-connection bufio reader/writer.
	wireBufSize = 64 << 10

	// crcTrailerLen is the CRC32C trailer size. The trailer is excluded
	// from the header's length field, so a length-driven frame skipper
	// steps over payload + crcTrailerLen.
	crcTrailerLen = 4
)

// crcTable is the Castagnoli polynomial table shared by both directions.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame types. Requests and replies are distinct so a corrupted direction
// bit cannot alias a decode. Every per-block op replies on
// frameComputeReply and every other request on frameSessionReply, the
// last type: readFrame refuses anything past it.
const (
	frameHello byte = iota + 1
	frameSetup
	frameCompute
	frameComputeReply
	frameRekey
	frameProfile
	frameResume
	frameResumeChallenge
	frameResumeProof
	frameRotKeys
	frameMatVec
	frameSessionReply
)

// Typed frame errors: fuzzing and tests assert corrupt input maps to
// these instead of panicking.
var (
	// ErrBadFrame reports a malformed frame or payload (wrong magic or
	// version, unknown type, truncated or trailing payload bytes).
	ErrBadFrame = errors.New("edge: malformed frame")
	// ErrFrameTooLarge reports a frame whose length field exceeds
	// maxFramePayload.
	ErrFrameTooLarge = errors.New("edge: frame exceeds size limit")
	// ErrProtocolMismatch reports a peer that did not acknowledge the
	// client's hello: it speaks another frame version, another protocol
	// altogether, or nothing at all within negotiateTimeout.
	ErrProtocolMismatch = errors.New("edge: peer does not speak this protocol version")
	// ErrFrameChecksum reports a frame whose CRC32C trailer does not match
	// its contents: corruption on the link, surfaced as a typed error
	// instead of a garbage decode.
	ErrFrameChecksum = errors.New("edge: frame checksum mismatch")
)

// frameBufs pools frame build/read buffers. A buffer that grew past what
// the largest legal frame needs (a build that failed with
// ErrFrameTooLarge) is dropped rather than pinned forever.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getFrameBuf() *[]byte { return frameBufs.Get().(*[]byte) }

func putFrameBuf(pb *[]byte) {
	if cap(*pb) > frameHeaderLen+maxFramePayload+crcTrailerLen {
		return
	}
	*pb = (*pb)[:0]
	frameBufs.Put(pb)
}

// beginFrame starts a frame in b (one frame per buffer, at offset 0) with
// a zero length field; finishFrame patches the length once the payload is
// in place and appends the checksum trailer.
func beginFrame(b []byte, ftype byte, id uint64) []byte {
	b = append(b, frameMagic0, frameMagic1, frameVersion, ftype)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint32(b, 0)
}

func finishFrame(b []byte) ([]byte, error) {
	n := len(b) - frameHeaderLen
	if n < 0 {
		return nil, ErrBadFrame
	}
	if n > maxFramePayload {
		return nil, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(b[12:16], uint32(n))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable)), nil
}

// readFrame reads one frame from br, growing *buf (pooled) to hold the
// payload, and verifies its checksum trailer: a mismatch fails with the
// typed ErrFrameChecksum instead of handing a corrupt payload to a
// decoder. The returned payload aliases *buf and is valid until the next
// readFrame with the same buffer; decoders copy what they keep.
func readFrame(br *bufio.Reader, buf *[]byte) (ftype byte, id uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 || hdr[2] != frameVersion {
		return 0, 0, nil, ErrBadFrame
	}
	ftype = hdr[3]
	if ftype < frameHello || ftype > frameSessionReply {
		return 0, 0, nil, ErrBadFrame
	}
	id = binary.LittleEndian.Uint64(hdr[4:12])
	n := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if n > maxFramePayload {
		return 0, 0, nil, ErrFrameTooLarge
	}
	b := *buf
	if cap(b) < n+crcTrailerLen {
		b = make([]byte, n+crcTrailerLen)
		*buf = b
	}
	b = b[:n+crcTrailerLen]
	if _, err = io.ReadFull(br, b); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	payload = b[:n]
	sum := crc32.Update(crc32.Checksum(hdr[:], crcTable), crcTable, payload)
	if sum != binary.LittleEndian.Uint32(b[n:]) {
		return 0, 0, nil, ErrFrameChecksum
	}
	return ftype, id, payload, nil
}

// frameWriter serializes frame writes on one connection. The server's
// reply writer and decode loop, or a client's concurrent callers, send at
// the same time; the mutex interleaves them at frame granularity. A write
// error tears the connection down exactly once via the teardown closure
// shared with the read side (no double-close race) and drops every later
// frame — the peer's pending requests then fail with a typed connection
// error instead of hanging.
type frameWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
	// failed latches the first write error.
	failed   bool
	teardown func()
	logf     func(string, ...interface{})
	// countSend, when non-nil, observes every frame that reached the
	// socket with its full wire size (header + payload + trailer). Set
	// once right after construction, before concurrent senders exist;
	// must be safe for concurrent calls (the server feeds atomics).
	countSend func(wireBytes int)
}

func newFrameWriter(conn net.Conn, teardown func(), logf func(string, ...interface{})) *frameWriter {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return &frameWriter{bw: bufio.NewWriterSize(conn, wireBufSize), teardown: teardown, logf: logf}
}

// send writes one complete frame (finished, trailer included) and flushes.
func (w *frameWriter) send(frame []byte) error {
	w.mu.Lock()
	if w.failed {
		w.mu.Unlock()
		return serve.ErrConnClosed
	}
	_, err := w.bw.Write(frame)
	if err == nil {
		err = w.bw.Flush()
	}
	w.failed = err != nil
	w.mu.Unlock()
	if err != nil {
		w.logf("edge: write: %v", err)
		w.teardown()
		return fmt.Errorf("%w: %v", serve.ErrConnClosed, err)
	}
	if w.countSend != nil {
		w.countSend(len(frame))
	}
	return nil
}

// sendFrame builds a frame from a payload-appending closure in a pooled
// buffer and sends it. build may be nil for empty payloads.
func (w *frameWriter) sendFrame(ftype byte, id uint64, build func(b []byte) []byte) error {
	pb := getFrameBuf()
	b := beginFrame((*pb)[:0], ftype, id)
	if build != nil {
		b = build(b)
	}
	b, err := finishFrame(b)
	if err == nil {
		*pb = b
		err = w.send(b)
	} else {
		w.logf("edge: frame build: %v", err)
	}
	putFrameBuf(pb)
	return err
}

// --- payload primitives -----------------------------------------------------

// growFrame reserves room in a frame under construction for a payload of
// the given size and the checksum trailer finishFrame appends, so the
// appends that follow allocate nothing.
func growFrame(b []byte, payload int) []byte {
	return slices.Grow(b, payload+crcTrailerLen)
}

// bytesSize is the encoded size of a length-prefixed string or byte field.
func bytesSize[T string | []byte](v T) int { return 4 + len(v) }

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func appendFloat64s(b []byte, v []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// wireReader decodes payload primitives with sticky-error semantics: the
// first failure latches and every later read returns zero values, so
// message decoders read fields linearly and check once at the end.
// Everything returned is copied out of the underlying buffer.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() { r.err = ErrBadFrame }

func (r *wireReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) bool() bool { return r.u8() != 0 }

func (r *wireReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || len(r.b) < n {
		r.fail()
		return ""
	}
	v := string(r.b[:n])
	r.b = r.b[n:]
	return v
}

func (r *wireReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return v
}

func (r *wireReader) float64s() []float64 {
	n := int(r.u32())
	if r.err != nil || n < 0 || len(r.b) < 8*n {
		r.fail()
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return v
}

// ciphertext decodes one ciphertext into fresh storage (candidates for
// retention — key material, results handed to callers — must not alias
// the frame buffer).
func (r *wireReader) ciphertext() *ckks.Ciphertext { return r.ciphertextInto(new(ckks.Ciphertext)) }

// ciphertextInto consumes one ciphertext into ct, reusing its limbs.
func (r *wireReader) ciphertextInto(ct *ckks.Ciphertext) *ckks.Ciphertext {
	if r.err != nil {
		return nil
	}
	n, err := ct.DecodeFrom(r.b)
	if err != nil {
		r.fail()
		return nil
	}
	r.b = r.b[n:]
	return ct
}

// traceContext consumes the fixed 16-byte trace context (all zero when the
// sender did not sample the request).
func (r *wireReader) traceContext() obs.TraceContext {
	if r.err != nil || len(r.b) < obs.TraceContextLen {
		r.fail()
		return obs.TraceContext{}
	}
	tc, err := obs.DecodeTraceContext(r.b[:obs.TraceContextLen])
	if err != nil {
		r.fail()
		return obs.TraceContext{}
	}
	r.b = r.b[obs.TraceContextLen:]
	return tc
}

// finish returns the latched error, or ErrBadFrame when payload bytes
// remain unconsumed (a frame carries exactly one message).
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	return r.err
}

// --- message codecs ---------------------------------------------------------
//
// One append/decode pair per message. Limits beyond what wireReader
// enforces structurally: encrypted-key vectors are capped at 4×KeyLen, so
// a hostile peer cannot request unbounded allocation from a single frame.

const maxWireEncKey = 4 * KeyLen

func ciphertextsSize(cts []*ckks.Ciphertext) int {
	n := 4
	for _, ct := range cts {
		n += ct.BinarySize()
	}
	return n
}

func appendCiphertexts(b []byte, cts []*ckks.Ciphertext) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cts)))
	for _, ct := range cts {
		b = ct.AppendBinary(b)
	}
	return b
}

func (r *wireReader) ciphertexts(max int) []*ckks.Ciphertext {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > max {
		r.fail()
		return nil
	}
	cts := make([]*ckks.Ciphertext, n)
	for i := range cts {
		cts[i] = r.ciphertext()
	}
	if r.err != nil {
		return nil
	}
	return cts
}

func appendSetupRequest(b []byte, req *SetupRequest) []byte {
	b = growFrame(b, bytesSize(req.SessionID)+4+4+req.RLK.BinarySize()+
		ciphertextsSize(req.EncKey)+bytesSize(req.Nonce)+bytesSize(req.Profile)+bytesSize(req.ResumeAuth))
	b = appendString(b, req.SessionID)
	b = binary.LittleEndian.AppendUint32(b, uint32(req.LogN))
	b = binary.LittleEndian.AppendUint32(b, uint32(req.Depth))
	b = req.RLK.AppendBinary(b)
	b = appendCiphertexts(b, req.EncKey)
	b = appendBytes(b, req.Nonce)
	b = appendString(b, req.Profile)
	return appendBytes(b, req.ResumeAuth)
}

func decodeSetupRequest(p []byte) (*SetupRequest, error) {
	r := &wireReader{b: p}
	req := &SetupRequest{
		SessionID: r.str(),
		LogN:      int(r.u32()),
		Depth:     int(r.u32()),
		RLK:       new(ckks.RelinKey),
	}
	if r.err == nil {
		if n, err := req.RLK.DecodeFrom(r.b); err != nil {
			r.fail()
		} else {
			r.b = r.b[n:]
		}
	}
	req.EncKey = r.ciphertexts(maxWireEncKey)
	req.Nonce = r.bytes()
	req.Profile = r.str()
	req.ResumeAuth = r.bytes()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

func appendProfileRequest(b []byte, req *ProfileRequest) []byte {
	b = appendString(b, req.SessionID)
	return appendString(b, req.Requested)
}

func decodeProfileRequest(p []byte) (*ProfileRequest, error) {
	r := &wireReader{b: p}
	req := &ProfileRequest{SessionID: r.str(), Requested: r.str()}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// The session reply carries every field of the layout whatever the
// request: a field the request has no answer for travels as zero.
func appendSessionReply(b []byte, rep *SessionReply) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(rep.Code))
	b = appendString(b, rep.Err)
	b = appendString(b, rep.Profile)
	b = binary.LittleEndian.AppendUint64(b, rep.Epoch)
	return binary.LittleEndian.AppendUint32(b, uint32(rep.MatVecDim))
}

func decodeSessionReply(p []byte) (*SessionReply, error) {
	r := &wireReader{b: p}
	rep := &SessionReply{Code: serve.Code(r.u32()), Err: r.str(), Profile: r.str(), Epoch: r.u64(), MatVecDim: int(r.u32())}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

func appendComputeRequest(b []byte, req *ComputeRequest) []byte {
	b = appendString(b, req.SessionID)
	b = binary.LittleEndian.AppendUint32(b, req.Block)
	b = binary.LittleEndian.AppendUint64(b, req.Epoch)
	b = appendFloat64s(b, req.Masked)
	return req.Trace.AppendBinary(b)
}

func decodeComputeRequest(p []byte) (*ComputeRequest, error) {
	r := &wireReader{b: p}
	req := &ComputeRequest{
		SessionID: r.str(),
		Block:     r.u32(),
		Epoch:     r.u64(),
		Masked:    r.float64s(),
		Trace:     r.traceContext(),
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

func appendComputeReply(b []byte, rep *ComputeReply) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(rep.Code))
	b = appendString(b, rep.Err)
	b = appendBool(b, rep.RekeyNeeded)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rep.ModeledTxDelay))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rep.ModeledCmpDelay))
	b = appendBool(b, rep.Result != nil)
	if rep.Result != nil {
		b = growFrame(b, rep.Result.BinarySize())
		b = rep.Result.AppendBinary(b)
	}
	return b
}

// replyPool recycles the result ciphertexts decodeComputeReply decodes
// into. A client decrypts each reply once and hands its ciphertext back
// (Client.decrypt), so a stream of replies reuses a few receivers' limbs
// instead of allocating 2·(level+1)·N words per reply.
var replyPool = sync.Pool{New: func() any { return new(ckks.Ciphertext) }}

// decodeComputeReply decodes a per-block reply; its result ciphertext is
// drawn from replyPool.
func decodeComputeReply(p []byte) (*ComputeReply, error) {
	r := &wireReader{b: p}
	rep := &ComputeReply{
		Code:            serve.Code(r.u32()),
		Err:             r.str(),
		RekeyNeeded:     r.bool(),
		ModeledTxDelay:  r.f64(),
		ModeledCmpDelay: r.f64(),
	}
	if r.bool() {
		rep.Result = r.ciphertextInto(replyPool.Get().(*ckks.Ciphertext))
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

func appendRekeyRequest(b []byte, req *RekeyRequest) []byte {
	b = growFrame(b, bytesSize(req.SessionID)+ciphertextsSize(req.EncKey)+
		bytesSize(req.Nonce)+bytesSize(req.ResumeAuth))
	b = appendString(b, req.SessionID)
	b = appendCiphertexts(b, req.EncKey)
	b = appendBytes(b, req.Nonce)
	return appendBytes(b, req.ResumeAuth)
}

func decodeRekeyRequest(p []byte) (*RekeyRequest, error) {
	r := &wireReader{b: p}
	req := &RekeyRequest{
		SessionID:  r.str(),
		EncKey:     r.ciphertexts(maxWireEncKey),
		Nonce:      r.bytes(),
		ResumeAuth: r.bytes(),
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// maxResumeField bounds the variable-length resume handshake fields
// (challenge, MAC): both are fixed-size in practice (16 and 32 bytes)
// but the decoder tolerates growth without allowing unbounded allocation.
const maxResumeField = 64

func appendResumeRequest(b []byte, req *ResumeRequest) []byte {
	b = appendString(b, req.SessionID)
	b = binary.LittleEndian.AppendUint64(b, req.Epoch)
	return appendString(b, req.Profile)
}

func decodeResumeRequest(p []byte) (*ResumeRequest, error) {
	r := &wireReader{b: p}
	req := &ResumeRequest{SessionID: r.str(), Epoch: r.u64(), Profile: r.str()}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

func appendResumeChallenge(b []byte, ch *ResumeChallenge) []byte {
	return appendBytes(b, ch.Challenge)
}

func decodeResumeChallenge(p []byte) (*ResumeChallenge, error) {
	r := &wireReader{b: p}
	ch := &ResumeChallenge{Challenge: r.bytes()}
	if err := r.finish(); err != nil {
		return nil, err
	}
	if len(ch.Challenge) == 0 || len(ch.Challenge) > maxResumeField {
		return nil, ErrBadFrame
	}
	return ch, nil
}

func appendResumeProof(b []byte, pr *ResumeProof) []byte {
	return appendBytes(b, pr.MAC)
}

func decodeResumeProof(p []byte) (*ResumeProof, error) {
	r := &wireReader{b: p}
	pr := &ResumeProof{MAC: r.bytes()}
	if err := r.finish(); err != nil {
		return nil, err
	}
	if len(pr.MAC) == 0 || len(pr.MAC) > maxResumeField {
		return nil, ErrBadFrame
	}
	return pr, nil
}

func appendRotKeysRequest(b []byte, req *RotKeysRequest) []byte {
	b = growFrame(b, bytesSize(req.SessionID)+req.Key.BinarySize())
	b = appendString(b, req.SessionID)
	return req.Key.AppendBinary(b)
}

func decodeRotKeysRequest(p []byte) (*RotKeysRequest, error) {
	r := &wireReader{b: p}
	req := &RotKeysRequest{SessionID: r.str(), Key: new(ckks.GaloisKey)}
	if r.err == nil {
		if n, err := req.Key.DecodeFrom(r.b); err != nil {
			r.fail()
		} else {
			r.b = r.b[n:]
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// Every per-block op (compute, matvec) uses the Compute codecs — the
// payloads are field-identical (masked block in, ciphertext out); the
// request frame type alone selects the op, and every op replies on
// frameComputeReply.

// resumeMAC computes the resume possession proof:
// HMAC-SHA256(auth, challenge || sessionID || epoch_le64). Shared by the
// client (proving) and server (verifying) sides.
func resumeMAC(auth, challenge []byte, sessionID string, epoch uint64) []byte {
	mac := hmac.New(sha256.New, auth)
	mac.Write(challenge)
	mac.Write([]byte(sessionID))
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], epoch)
	mac.Write(e[:])
	return mac.Sum(nil)
}

// deriveResumeAuth derives the session resume credential from raw QKD key
// material, domain-separated from every other use of the key. The
// credential is registered with the server at Setup/Rekey and never
// reused across epochs (the material changes every rotation).
func deriveResumeAuth(qkdMaterial []byte) []byte {
	h := sha256.New()
	h.Write([]byte("quhe/resume/v1"))
	h.Write(qkdMaterial)
	return h.Sum(nil)
}
