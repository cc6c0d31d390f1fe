package edge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
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
	req := &ComputeRequest{SessionID: "sess", Block: 42, Epoch: 7, Masked: []float64{0.25, -1.5, 3.75}}
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
	if got.SessionID != req.SessionID || got.Block != req.Block || got.Epoch != req.Epoch ||
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
		return appendComputeRequest(b, &ComputeRequest{SessionID: "s", Masked: []float64{1}})
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
	badVersion[2] = 9
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

// TestPayloadCodecsRoundTrip exercises every message codec pair.
func TestPayloadCodecsRoundTrip(t *testing.T) {
	setupRep := &SetupReply{Code: serve.CodeParamMismatch, Err: "logN"}
	gotSetupRep, err := decodeSetupReply(appendSetupReply(nil, setupRep))
	if err != nil || gotSetupRep.Code != setupRep.Code || gotSetupRep.Err != setupRep.Err {
		t.Fatalf("setup reply: %+v err %v", gotSetupRep, err)
	}
	okRep, err := decodeSetupReply(appendSetupReply(nil, &SetupReply{Profile: "p", MatVecDim: 8}))
	if err != nil || okRep.Code != serve.CodeOK || okRep.Profile != "p" || okRep.MatVecDim != 8 {
		t.Fatalf("setup ok reply: %+v err %v", okRep, err)
	}
	// Profile and MatVecDim are fixed fields: a reply that stops before
	// them (the retired optional-trailing layout) does not decode.
	enc := appendSetupReply(nil, &SetupReply{})
	if _, err := decodeSetupReply(enc[:len(enc)-8]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("setup reply without its fixed fields: err = %v, want ErrBadFrame", err)
	}

	q, err := decodeProfileRequest(appendProfileRequest(nil, &ProfileRequest{SessionID: "s", Requested: "r"}))
	if err != nil || q.SessionID != "s" || q.Requested != "r" {
		t.Fatalf("profile request: %+v err %v", q, err)
	}
	grant, err := decodeProfileReply(appendProfileReply(nil, &ProfileReply{Granted: "g"}))
	if err != nil || grant.Granted != "g" || grant.Code != serve.CodeOK {
		t.Fatalf("profile reply: %+v err %v", grant, err)
	}

	compRep := &ComputeReply{Code: serve.CodeRekeyRequired, Err: "budget",
		RekeyNeeded: true, ModeledTxDelay: 0.5, ModeledCmpDelay: 0.25}
	gotCompRep, err := decodeComputeReply(appendComputeReply(nil, compRep))
	if err != nil || *gotCompRep != *compRep {
		t.Fatalf("compute reply: %+v err %v", gotCompRep, err)
	}

	rkRep, err := decodeRekeyReply(appendRekeyReply(nil, &RekeyReply{Epoch: 4}))
	if err != nil || rkRep.Code != serve.CodeOK || rkRep.Epoch != 4 {
		t.Fatalf("rekey reply: %+v err %v", rkRep, err)
	}

	// Trailing garbage after a well-formed message is a protocol error.
	withTrailer := append(appendComputeReply(nil, compRep), 0xFF)
	if _, err := decodeComputeReply(withTrailer); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes: err = %v, want ErrBadFrame", err)
	}
}

// TestTraceContextWireField pins the fixed 16-byte trace-context field on
// per-block request payloads: a sampled context round-trips, an unsampled
// request carries sixteen zero bytes that decode to "no context", and a
// payload without the whole field is rejected typed.
func TestTraceContextWireField(t *testing.T) {
	tc := obs.TraceContext{TraceID: 0xfeed, Parent: 0xbeef, Sampled: true}

	req := &ComputeRequest{SessionID: "s", Block: 1, Epoch: 2, Masked: []float64{1}, Trace: tc}
	enc := appendComputeRequest(nil, req)
	got, err := decodeComputeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != tc {
		t.Errorf("compute trace round trip: %+v, want %+v", got.Trace, tc)
	}

	bare := appendComputeRequest(nil, &ComputeRequest{SessionID: "s", Block: 1, Epoch: 2, Masked: []float64{1}})
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
	if err := fw.sendFrame(frameHello, 0, nil); !errors.Is(err, serve.ErrConnClosed) {
		t.Errorf("post-teardown send err = %v, want serve.ErrConnClosed", err)
	}
	if got := conn.closes.Load(); got != 1 {
		t.Fatalf("post-teardown send closed again (%d closes)", got)
	}
}

// FuzzFrameDecode asserts the frame reader and every payload decoder
// return typed errors on truncated or corrupt input and never panic.
func FuzzFrameDecode(f *testing.F) {
	valid := buildFrame(f, frameCompute, 7, func(b []byte) []byte {
		return appendComputeRequest(b, &ComputeRequest{SessionID: "s", Block: 1, Epoch: 1, Masked: []float64{0.5}})
	})
	f.Add(valid)
	f.Add(valid[:frameHeaderLen])
	f.Add([]byte{frameMagic0, frameMagic1, frameVersion, frameMatVec})
	f.Add(buildFrame(f, frameComputeReply, 9, func(b []byte) []byte {
		return appendComputeReply(b, &ComputeReply{Code: serve.CodeOverloaded, Err: "full"})
	}))
	// A compute frame with a sampled trace context in its fixed field.
	f.Add(buildFrame(f, frameCompute, 11, func(b []byte) []byte {
		return appendComputeRequest(b, &ComputeRequest{
			SessionID: "s", Block: 2, Epoch: 1, Masked: []float64{0.25},
			Trace: obs.TraceContext{TraceID: 0xabcdef, Parent: 0x123456, Sampled: true},
		})
	}))
	// A Setup whose relinearization key stops after one digit: well-formed
	// on the wire, refused at install (see TestInstallValidation).
	p := newRawPeer(f, 311)
	f.Add(buildFrame(f, frameSetup, 13, func(b []byte) []byte {
		req := p.setupRequest("fuzz", p.encKey(f))
		req.RLK = &ckks.RelinKey{QP: req.RLK.QP, Seed: req.RLK.Seed, Parts: req.RLK.Parts[:1]}
		return appendSetupRequest(b, req)
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
		var derr error
		switch ftype {
		case frameSetup:
			var req *SetupRequest
			if req, derr = decodeSetupRequest(payload); derr == nil {
				// What handleSetup runs on a decoded key before a worker
				// may index it: any shape must come back as an error.
				_ = p.ctx.CheckSwitchingKey(req.RLK)
			}
		case frameSetupReply:
			_, derr = decodeSetupReply(payload)
		case frameCompute, frameMatVec:
			_, derr = decodeComputeRequest(payload)
		case frameComputeReply, frameMatVecReply:
			_, derr = decodeComputeReply(payload)
		case frameRekey:
			_, derr = decodeRekeyRequest(payload)
		case frameRekeyReply:
			_, derr = decodeRekeyReply(payload)
		case frameRotKeys:
			var req *RotKeysRequest
			if req, derr = decodeRotKeysRequest(payload); derr == nil {
				_ = p.ctx.CheckSwitchingKey(&req.Key.SwitchingKey)
			}
		case frameRotKeysReply:
			_, derr = decodeRotKeysReply(payload)
		}
		if derr != nil && !errors.Is(derr, ErrBadFrame) {
			t.Fatalf("untyped payload error for frame type %d: %v", ftype, derr)
		}
	})
}
