package edge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"quhe/internal/he/profile"
	"quhe/internal/serve"
)

// --- streaming replies ---------------------------------------------------------

// TestPipelinedRepliesStreamOutOfOrder is the acceptance test for the
// reply path: replies to pipelined ops arrive as workers finish — out of
// order, matched by ID — and the first one arrives while the server still
// has unevaluated requests, i.e. nothing is buffered behind the last
// block. One of two workers is parked inside the first request, so the
// first reply to arrive must belong to a later one.
func TestPipelinedRepliesStreamOutOfOrder(t *testing.T) {
	ctl := &fakeControl{}
	srv := startControlledServer(t, ctl, ServerConfig{Workers: 2, QueueDepth: 4})

	// Raw client: drive the frames directly so their arrival order is
	// observable.
	p := newRawPeer(t, 95)
	p.dial(t, srv.Addr())
	p.register(t, "stream")

	const n = 32
	request := func(i int) func(b []byte) []byte {
		req := &ComputeRequest{Block: uint32(i), Epoch: 1, Masked: p.mask(t, uint32(i), []float64{0.25})}
		return func(b []byte) []byte { return appendComputeRequest(b, req) }
	}
	release := parkFirstBlock(ctl, func() { p.send(t, frameCompute, 1, request(1)) })
	// The rest outruns the connection's window, so these writes back up
	// until replies are read: they run beside the reads.
	frames := make([][]byte, 0, n-1)
	for i := 2; i <= n; i++ {
		frames = append(frames, buildFrame(t, frameCompute, uint64(i), request(i)))
	}
	go func() {
		for _, f := range frames {
			if _, err := p.conn.Write(f); err != nil {
				return
			}
		}
	}()

	seen := make(map[uint64]bool, n)
	for len(seen) < n {
		ftype, id, payload := p.recv(t)
		rep, err := decodeComputeReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		if ftype != frameComputeReply || id < 1 || id > n || seen[id] || rep.Code != serve.CodeOK || rep.Result == nil {
			t.Fatalf("reply frame %d id %d (seen %v): %+v", ftype, id, seen[id], rep)
		}
		if len(seen) == 0 {
			if id == 1 {
				t.Error("the parked request was answered first")
			}
			// The incremental-delivery claim: when the first reply
			// arrived, the server had not yet evaluated every request.
			if done := blocks(srv, "stream"); done >= n-1 {
				t.Errorf("first reply arrived after %d of %d blocks: replies were buffered, not streamed", done, n)
			}
			if got := p.decrypt(rep.Result); math.Abs(got[0]-0.25) > 0.05 {
				t.Errorf("streamed result = %v, want 0.25", got[0])
			}
			close(release)
		}
		seen[id] = true
	}
}

// --- typed teardown ----------------------------------------------------------

// TestPendingFailTypedOnConnClose: when the transport dies with requests
// in flight, the client fails them with an error wrapping
// serve.ErrConnClosed (the typed code for torn-down connections).
func TestPendingFailTypedOnConnClose(t *testing.T) {
	// A stub server that answers the profile query, then kills the
	// connection on the Setup.
	ln := stubListener(t, func(conn net.Conn, br *bufio.Reader) {
		var buf []byte
		if ftype, _, _, err := readFrame(br, &buf); err != nil || ftype != frameProfile {
			return
		}
		conn.Write(buildFrame(t, frameSessionReply, 0, func(b []byte) []byte {
			return appendSessionReply(b, &SessionReply{Profile: profile.IDDefault})
		}))
		readFrame(br, &buf) // the Setup request — drop it on the floor
	})

	_, err := DialWith(ln.Addr().String(), "doomed", []byte("k"), 97, DialConfig{})
	if err == nil {
		t.Fatal("dial against request-dropping server succeeded")
	}
	if !errors.Is(err, serve.ErrConnClosed) {
		t.Errorf("in-flight request err = %v, want wrapping serve.ErrConnClosed", err)
	}
	if serve.CodeOf(err) != serve.CodeConnClosed {
		t.Errorf("CodeOf(err) = %v, want CodeConnClosed", serve.CodeOf(err))
	}
}

// TestClientCloseFailsPendingTyped: the client's own Close also surfaces
// the typed code to anything still waiting.
func TestClientCloseFailsPendingTyped(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	client, err := DialWith(srv.Addr(), "self-close", []byte("k"), 99, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := client.Compute(0, []float64{0.5}); err == nil {
		t.Fatal("compute on closed client succeeded")
	} else if !errors.Is(err, serve.ErrConnClosed) {
		t.Errorf("compute after Close: err = %v, want wrapping serve.ErrConnClosed", err)
	}
}

// --- stale and foreign peers -------------------------------------------------

// stubListener accepts one connection and hands it to serve, closing it
// when serve returns — a peer that is not an edge server.
func stubListener(t *testing.T, serve func(conn net.Conn, br *bufio.Reader)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn, bufio.NewReader(conn))
	}()
	return ln
}

// staleFrame builds an empty frame under another frame version with a
// checksum that is valid for it, as a peer built at that version would.
func staleFrame(version, ftype byte) []byte {
	b := beginFrame(nil, ftype, 0)
	b[2] = version
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// TestDialFailsAgainstForeignListener: a listener that never answers the
// profile query, the opening's first frame — it closes on it as the
// retired gob servers did, answers in the previous frame version, or says
// nothing — fails the dial with an error wrapping ErrProtocolMismatch
// within negotiateTimeout. There is no fallback to redial on.
func TestDialFailsAgainstForeignListener(t *testing.T) {
	t.Parallel()
	peers := map[string]func(conn net.Conn, br *bufio.Reader){
		"closes on the profile query": func(conn net.Conn, br *bufio.Reader) {
			br.ReadByte()
		},
		"acks the previous version": func(conn net.Conn, br *bufio.Reader) {
			br.ReadByte()
			conn.Write(staleFrame(frameVersion-1, frameSessionReply))
			io.Copy(io.Discard, br) // until the client hangs up
		},
		"never answers": func(conn net.Conn, br *bufio.Reader) {
			io.Copy(io.Discard, br)
		},
	}
	for name, peer := range peers {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ln := stubListener(t, peer)
			start := time.Now()
			_, err := DialWith(ln.Addr().String(), "stranger", []byte("k"), 89, DialConfig{})
			if !errors.Is(err, ErrProtocolMismatch) {
				t.Errorf("dial err = %v, want wrapping ErrProtocolMismatch", err)
			}
			if d := time.Since(start); d > negotiateTimeout+2*time.Second {
				t.Errorf("dial took %v, want within negotiateTimeout (%v)", d, negotiateTimeout)
			}
		})
	}
}

// TestStalePeersFailClosed: a connection that opens with anything but a
// profile query in the current frame version — a gob stream,
// the previous version's profile query, garbage, a well-formed session
// frame, a profile query that does not decode — is closed without a
// reply, registers nothing, reaches no worker, and is counted.
func TestStalePeersFailClosed(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: Model{Weights: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	openers := map[string][]byte{
		// How a gob-era client opened: the encoder's type definition for
		// the request envelope.
		"gob stream":             []byte("\x4a\xff\x81\x03\x01\x01\x08envelope\x01\xff\x82\x00\x01\x07\x01\x02ID\x01\x06\x00\x01\x05Setup"),
		"previous frame version": staleFrame(frameVersion-1, frameProfile),
		"garbage":                bytes.Repeat([]byte{0x5a}, 2*frameHeaderLen),
		"compute before Setup": buildFrame(t, frameCompute, 1, func(b []byte) []byte {
			return appendComputeRequest(b, &ComputeRequest{Block: 1, Epoch: 1, Masked: []float64{0.5}})
		}),
		"profile query with a trailing byte": buildFrame(t, frameProfile, 1, func(b []byte) []byte {
			return append(appendProfileRequest(b, &ProfileRequest{SessionID: "eager"}), 0x3f)
		}),
	}
	for name, opener := range openers {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opener); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := io.Copy(io.Discard, conn); err != nil || n != 0 {
			t.Errorf("%s: server sent %d bytes (err %v), want a silent close", name, n, err)
		}
		conn.Close()
	}
	checkSessions(t, srv, "after stale and foreign openers", 0)
	if got := srv.met.protoMismatches.Value(); got != int64(len(openers)) {
		t.Errorf("protocol mismatch counter = %d, want %d", got, len(openers))
	}
	if got := srv.met.stages[stageIdxQueueWait].Snapshot().Count; got != 0 {
		t.Errorf("stale peers put %d jobs through the scheduler", got)
	}
	// The server is unharmed: a current client still dials and computes.
	c, err := DialWith(srv.Addr(), "current", []byte("k"), 90, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Compute(0, []float64{0.5}); err != nil {
		t.Errorf("compute after stale peers: %v", err)
	}
}
