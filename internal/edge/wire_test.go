package edge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/he/ckks"
	"quhe/internal/obs"
	"quhe/internal/serve"
)

func buildFrame(t testing.TB, ftype byte, id uint64, build func(b []byte) []byte) []byte {
	t.Helper()
	b := beginFrame(nil, ftype, id)
	if build != nil {
		b = build(b)
	}
	b, err := finishFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	req := &ComputeRequest{Block: 42, Epoch: 7, Masked: []float64{0.25, -1.5, 3.75}}
	frame := buildFrame(t, frameCompute, 99, func(b []byte) []byte { return appendComputeRequest(b, req) })

	var buf []byte
	ftype, id, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != frameCompute || id != 99 {
		t.Fatalf("header: type=%d id=%d", ftype, id)
	}
	got, err := decodeComputeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Block != req.Block || got.Epoch != req.Epoch ||
		len(got.Masked) != len(req.Masked) {
		t.Fatalf("decoded %+v", got)
	}
	for i := range req.Masked {
		if got.Masked[i] != req.Masked[i] {
			t.Fatalf("masked[%d] = %v, want %v", i, got.Masked[i], req.Masked[i])
		}
	}
}

func TestFrameDecodeTypedErrors(t *testing.T) {
	valid := buildFrame(t, frameCompute, 1, func(b []byte) []byte {
		return appendComputeRequest(b, &ComputeRequest{Masked: []float64{1}})
	})
	read := func(b []byte) error {
		var buf []byte
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), &buf)
		return err
	}

	if err := read(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'Z'
	if err := read(badMagic); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: err = %v, want ErrBadFrame", err)
	}
	badVersion := append([]byte(nil), valid...)
	badVersion[2] = frameVersion + 1
	if err := read(badVersion); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad version: err = %v, want ErrBadFrame", err)
	}
	badType := append([]byte(nil), valid...)
	badType[3] = 200
	if err := read(badType); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad type: err = %v, want ErrBadFrame", err)
	}
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[12:16], maxFramePayload+1)
	if err := read(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized: err = %v, want ErrFrameTooLarge", err)
	}
	// Truncations: header cut → EOF/unexpected EOF; payload cut →
	// unexpected EOF. Never a panic, never an untyped success.
	for cut := 0; cut < len(valid); cut++ {
		err := read(valid[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
}

// frameDecoders maps every frame type to the payload decoder a peer runs
// on it. The fuzz target decodes through it, and
// TestEveryFrameTypeFuzzed holds it to the frame types readFrame accepts,
// so a new frame type cannot skip the fuzzer.
var frameDecoders = map[byte]func(p []byte) (any, error){
	frameSetup:        decoder(decodeSetupRequest),
	frameCompute:      decoder(decodeComputeRequest),
	frameMatVec:       decoder(decodeComputeRequest),
	frameComputeReply: decoder(decodeComputeReply),
	frameRekey:        decoder(decodeRekeyRequest),
	frameProfile:      decoder(decodeProfileRequest),
	frameRotKeys:      decoder(decodeRotKeysRequest),
	frameSessionReply: decoder(decodeSessionReply),
}

func decoder[M any](decode func([]byte) (*M, error)) func([]byte) (any, error) {
	return func(p []byte) (any, error) { return decode(p) }
}

// codecSample is one message codec pair under test: a sample message with
// every field set, its payload, and the frame types that carry it.
type codecSample struct {
	name   string
	ftypes []byte
	msg    any
	enc    []byte
}

func sampleOf[M any](name string, msg *M, appendMsg func([]byte, *M) []byte, ftypes ...byte) codecSample {
	return codecSample{name: name, ftypes: ftypes, msg: msg, enc: appendMsg(nil, msg)}
}

// codecSamples returns one sample per codec pair, covering every frame
// type. Key and ciphertext fields carry p's real material.
func codecSamples(t testing.TB, p *rawPeer) []codecSample {
	t.Helper()
	setup := p.setupRequest(p.encKey(t))
	tc := obs.TraceContext{TraceID: 0xabcdef, Parent: 0x123456, Sampled: true}
	return []codecSample{
		sampleOf("setup request", setup, appendSetupRequest, frameSetup),
		sampleOf("profile request", &ProfileRequest{SessionID: "s", Requested: "r"}, appendProfileRequest, frameProfile),
		sampleOf("compute request", &ComputeRequest{Block: 3, Masked: []float64{0.25, -1.5}, Epoch: 7, Trace: tc},
			appendComputeRequest, frameCompute, frameMatVec),
		sampleOf("compute reply", &ComputeReply{Result: p.encKey(t)[0], Code: serve.CodeRekeyRequired, Err: "budget",
			RekeyNeeded: true, ModeledTxDelay: 0.5, ModeledCmpDelay: 0.25}, appendComputeReply, frameComputeReply),
		sampleOf("rekey request", &RekeyRequest{EncKey: p.encKey(t), Nonce: []byte("nonce")},
			appendRekeyRequest, frameRekey),
		sampleOf("rotation-key request", &RotKeysRequest{Key: ckks.NewKeyGenerator(p.ctx, 3).GenGaloisKey(p.sk, 1)},
			appendRotKeysRequest, frameRotKeys),
		sampleOf("session reply", &SessionReply{Code: serve.CodeParamMismatch, Err: "logN", Profile: "p", Epoch: 5, MatVecDim: 8},
			appendSessionReply, frameSessionReply),
	}
}

// TestPayloadCodecsRoundTrip holds every message codec pair to its
// sample: the payload decodes back to the message, and a payload one byte
// short or one byte long is a protocol error — every field is mandatory
// and a frame carries exactly one message.
func TestPayloadCodecsRoundTrip(t *testing.T) {
	samples := codecSamples(t, newRawPeer(t, 107))
	if len(samples) != 7 {
		t.Fatalf("%d codec pairs sampled, want 7", len(samples))
	}
	for _, c := range samples {
		t.Run(c.name, func(t *testing.T) {
			decode := frameDecoders[c.ftypes[0]]
			got, err := decode(c.enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.msg) {
				t.Errorf("round trip: %+v, want %+v", got, c.msg)
			}
			if _, err := decode(c.enc[:len(c.enc)-1]); !errors.Is(err, ErrBadFrame) {
				t.Errorf("one byte short: err = %v, want ErrBadFrame", err)
			}
			if _, err := decode(append(c.enc[:len(c.enc):len(c.enc)], 0)); !errors.Is(err, ErrBadFrame) {
				t.Errorf("one byte long: err = %v, want ErrBadFrame", err)
			}
		})
	}
}

// TestEveryFrameTypeFuzzed: every frame type readFrame accepts has a
// decoder in frameDecoders and a seed in codecSamples, and nothing else
// has either.
func TestEveryFrameTypeFuzzed(t *testing.T) {
	seeded := map[byte]bool{}
	for _, c := range codecSamples(t, newRawPeer(t, 109)) {
		for _, ftype := range c.ftypes {
			seeded[ftype] = true
		}
	}
	for ftype := 0; ftype <= 0xFF; ftype++ {
		var buf []byte
		frame := buildFrame(t, byte(ftype), 1, nil)
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), &buf)
		accepted := err == nil
		if _, ok := frameDecoders[byte(ftype)]; ok != accepted {
			t.Errorf("frame type %d: readFrame accepts it: %v, has a decoder: %v", ftype, accepted, ok)
		}
		if seeded[byte(ftype)] != accepted {
			t.Errorf("frame type %d: readFrame accepts it: %v, has a fuzz seed: %v", ftype, accepted, seeded[byte(ftype)])
		}
	}
}

// TestTraceContextWireField pins the fixed 16-byte trace-context field on
// per-block request payloads: a sampled context round-trips, an unsampled
// request carries sixteen zero bytes that decode to "no context", and a
// payload without the whole field is rejected typed.
func TestTraceContextWireField(t *testing.T) {
	tc := obs.TraceContext{TraceID: 0xfeed, Parent: 0xbeef, Sampled: true}

	req := &ComputeRequest{Block: 1, Epoch: 2, Masked: []float64{1}, Trace: tc}
	enc := appendComputeRequest(nil, req)
	got, err := decodeComputeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != tc {
		t.Errorf("compute trace round trip: %+v, want %+v", got.Trace, tc)
	}

	bare := appendComputeRequest(nil, &ComputeRequest{Block: 1, Epoch: 2, Masked: []float64{1}})
	if len(bare) != len(enc) || !bytes.Equal(bare[len(bare)-obs.TraceContextLen:], make([]byte, obs.TraceContextLen)) {
		t.Error("an unsampled request must carry a zero context of the same width")
	}
	gotBare, err := decodeComputeRequest(bare)
	if err != nil {
		t.Fatal(err)
	}
	if gotBare.Trace.Valid() {
		t.Errorf("zero context decoded as valid: %+v", gotBare.Trace)
	}

	// The field is mandatory: absent, short or followed by garbage is a
	// protocol error.
	for _, bad := range [][]byte{enc[:len(enc)-obs.TraceContextLen], enc[:len(enc)-1], append(enc, 0x01)} {
		if _, err := decodeComputeRequest(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%d-byte payload (whole: %d): err = %v, want ErrBadFrame", len(bad), len(enc), err)
		}
	}
}

// countingConn is a net.Conn stub whose writes fail after failAfter
// successful calls and whose Close calls are counted — the double-close
// detector for the teardown regression test.
type countingConn struct {
	mu        sync.Mutex
	writes    int
	failAfter int
	closes    atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.writes > c.failAfter {
		return 0, errors.New("injected write failure")
	}
	return len(p), nil
}

func (c *countingConn) Close() error {
	c.closes.Add(1)
	return nil
}

func (c *countingConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *countingConn) LocalAddr() net.Addr              { return nil }
func (c *countingConn) RemoteAddr() net.Addr             { return nil }
func (c *countingConn) SetDeadline(time.Time) error      { return nil }
func (c *countingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

// TestFrameWriterTearsDownOnce is the regression test for the writer's
// teardown contract: concurrent write failures and a racing reader
// exit must close the connection exactly once, and every failed or
// subsequent send must surface an error wrapping serve.ErrConnClosed.
// Run under -race in CI.
func TestFrameWriterTearsDownOnce(t *testing.T) {
	conn := &countingConn{failAfter: 1}
	var once sync.Once
	teardown := func() { once.Do(func() { conn.Close() }) }
	fw := newFrameWriter(conn, teardown, nil)

	const senders = 8
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fw.sendFrame(frameComputeReply, uint64(i), func(b []byte) []byte {
				return appendComputeReply(b, &ComputeReply{Code: serve.CodeOK})
			})
		}()
	}
	// The reader goroutine races its own teardown, as serveConn's deferred
	// teardown does when the decode loop exits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		teardown()
	}()
	wg.Wait()

	if got := conn.closes.Load(); got != 1 {
		t.Fatalf("connection closed %d times, want exactly 1", got)
	}
	failures := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failures++
		if !errors.Is(err, serve.ErrConnClosed) {
			t.Errorf("sender %d: err = %v, want wrapping serve.ErrConnClosed", i, err)
		}
	}
	if failures == 0 {
		t.Fatal("no send failed despite the injected write error")
	}
	// The writer stays dead: later sends fail typed without touching conn.
	if err := fw.sendFrame(frameComputeReply, 0, func(b []byte) []byte {
		return appendComputeReply(b, &ComputeReply{Code: serve.CodeOK})
	}); !errors.Is(err, serve.ErrConnClosed) {
		t.Errorf("post-teardown send err = %v, want serve.ErrConnClosed", err)
	}
	if got := conn.closes.Load(); got != 1 {
		t.Fatalf("post-teardown send closed again (%d closes)", got)
	}
}

// FuzzFrameDecode asserts the frame reader and every payload decoder
// return typed errors on truncated or corrupt input and never panic. It
// is seeded with one valid frame of every type.
func FuzzFrameDecode(f *testing.F) {
	valid := buildFrame(f, frameCompute, 7, func(b []byte) []byte {
		return appendComputeRequest(b, &ComputeRequest{Block: 1, Epoch: 1, Masked: []float64{0.5}})
	})
	f.Add(valid)
	f.Add(valid[:frameHeaderLen])
	f.Add([]byte{frameMagic0, frameMagic1, frameVersion, frameMatVec})
	f.Add(buildFrame(f, frameComputeReply, 9, func(b []byte) []byte {
		return appendComputeReply(b, &ComputeReply{Code: serve.CodeOverloaded, Err: "full"})
	}))
	// A Setup whose relinearization key stops after one digit: well-formed
	// on the wire, refused at install (see TestInstallValidation).
	p := newRawPeer(f, 311)
	f.Add(buildFrame(f, frameSetup, 13, func(b []byte) []byte {
		req := p.setupRequest(p.encKey(f))
		req.RLK = &ckks.RelinKey{QP: req.RLK.QP, Seed: req.RLK.Seed, Parts: req.RLK.Parts[:1]}
		return appendSetupRequest(b, req)
	}))
	// An opening frame with nothing in it, the shape of the retired hello.
	f.Add(buildFrame(f, frameProfile, 0, func(b []byte) []byte { return b }))
	for _, c := range codecSamples(f, p) {
		for _, ftype := range c.ftypes {
			f.Add(buildFrame(f, ftype, 15, func(b []byte) []byte { return append(b, c.enc...) }))
		}
	}
	// What versions 14 and 15 retired must fail typed: a frame in the
	// previous version, a frame type past the last one, and a session frame
	// or a Setup whose payload still opens with the retired session ID.
	previous := buildFrame(f, frameProfile, 16, func(b []byte) []byte {
		return appendProfileRequest(b, &ProfileRequest{SessionID: "s"})
	})
	previous[2] = frameVersion - 1
	f.Add(previous)
	f.Add(buildFrame(f, frameSessionReply+1, 17, func(b []byte) []byte { return appendString(b, "s") }))
	f.Add(buildFrame(f, frameRekey, 18, func(b []byte) []byte {
		return appendRekeyRequest(appendString(b, "s"), &RekeyRequest{EncKey: p.encKey(f), Nonce: make([]byte, 12)})
	}))
	f.Add(buildFrame(f, frameSetup, 19, func(b []byte) []byte {
		return appendSetupRequest(appendString(b, "s"), p.setupRequest(p.encKey(f)))
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		ftype, _, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)), &buf)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrFrameChecksum) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped frame error: %v", err)
			}
			// The checksum stops nearly every mutation at the frame reader;
			// hand the bytes behind the header to the payload decoders
			// anyway, so they keep seeing hostile input.
			if len(data) < frameHeaderLen+crcTrailerLen {
				return
			}
			ftype, payload = data[3], data[frameHeaderLen:len(data)-crcTrailerLen]
		}
		decode := frameDecoders[ftype]
		if decode == nil {
			return
		}
		msg, derr := decode(payload)
		if derr != nil {
			if !errors.Is(derr, ErrBadFrame) {
				t.Fatalf("untyped payload error for frame type %d: %v", ftype, derr)
			}
			return
		}
		// What the server runs on a decoded key before a worker may index
		// it: any shape must come back as an error, never a panic.
		switch req := msg.(type) {
		case *SetupRequest:
			_ = p.ctx.CheckSwitchingKey(req.RLK, p.ctx.RelinLevel())
		case *RotKeysRequest:
			_ = p.ctx.CheckSwitchingKey(&req.Key.SwitchingKey, p.ctx.GaloisLevel())
		}
	})
}
