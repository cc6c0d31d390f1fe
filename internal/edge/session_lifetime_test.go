package edge

// A connection is its session: it opens with a profile query and a Setup,
// every later frame acts on the session that Setup registered, and the
// session ends with the connection.

import (
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// waitSessionGone polls until the server no longer holds session id: a
// connection's teardown runs on the server's side of the socket, after
// the peer has gone.
func waitSessionGone(t *testing.T, srv *Server, id string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, ok := srv.SessionStats(id); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %q outlived its connection", id)
		}
	}
}

// waitConns polls until the server counts n live connections. A
// connection's sessions are removed before it stops being counted.
func waitConns(t *testing.T, srv *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if int(srv.met.conns.Value()) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v live connections, want %d", srv.met.conns.Value(), n)
		}
	}
}

// computeRaw sends one Compute block of the connection's session at
// epoch 1 and returns the reply.
func (p *rawPeer) computeRaw(t *testing.T, block uint32, x []float64) *ComputeReply {
	t.Helper()
	req := &ComputeRequest{Block: block, Epoch: 1, Masked: p.mask(t, block, x)}
	rep, err := decodeComputeReply(p.call(t, frameCompute, frameComputeReply,
		func(b []byte) []byte { return appendComputeRequest(b, req) }))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkIdentity holds a served reply of the identity model to x.
func (p *rawPeer) checkIdentity(t *testing.T, rep *ComputeReply, x []float64) {
	t.Helper()
	if rep.Code != serve.CodeOK || rep.Result == nil {
		t.Fatalf("compute: %+v, want a result", rep)
	}
	got := p.decrypt(rep.Result)
	for i, want := range x {
		if math.Abs(got[i]-want) > 0.01 {
			t.Errorf("slot %d = %v, want %v", i, got[i], want)
		}
	}
}

// expectClosed holds the server to closing p's connection without another
// byte.
func (p *rawPeer) expectClosed(t *testing.T, what string) {
	t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := io.Copy(io.Discard, p.br); err != nil || n != 0 {
		t.Errorf("%s: server sent %d bytes (err %v), want a silent close", what, n, err)
	}
}

// TestForeignSessionRefused: a session frame names no session, so a
// connection without one has nothing to send it to. A connection that
// sends a Rekey, a rotation key or a Compute before any Setup is closed
// without a reply; the victim, live on another connection, stays at
// epoch 1 with no rotation keys, and its next block decodes under the key
// it registered.
func TestForeignSessionRefused(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}, Matrix: testMatrix, MatrixBias: testMatrixBias})
	victim := newRawPeer(t, 301)
	victim.dial(t, srv.Addr())
	victim.register(t, "victim")

	x := []float64{0.5, -0.25, 0.125, 1}
	intruder := newRawPeer(t, 303)
	frames := map[string][]byte{
		"rekey": buildFrame(t, frameRekey, 1, func(b []byte) []byte {
			return appendRekeyRequest(b, &RekeyRequest{EncKey: intruder.encKey(t), Nonce: []byte("edge:intrude")})
		}),
		"rotation key": buildFrame(t, frameRotKeys, 1, func(b []byte) []byte {
			return appendRotKeysRequest(b, intruder.rotKeys(305, len(testMatrix))[0])
		}),
		"compute": buildFrame(t, frameCompute, 1, func(b []byte) []byte {
			return appendComputeRequest(b, &ComputeRequest{Block: 1, Epoch: 1, Masked: intruder.mask(t, 1, x)})
		}),
	}
	for what, frame := range frames {
		intruder.dial(t, srv.Addr())
		if _, err := intruder.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		intruder.expectClosed(t, "a "+what+" before Setup")
	}

	st, ok := srv.SessionStats("victim")
	if !ok || st.Epoch != 1 || st.Rekeys != 0 || st.Blocks != 0 {
		t.Fatalf("victim after the foreign frames: %+v (resident %v), want epoch 1, untouched", st, ok)
	}
	if sess, _ := srv.store.Peek("victim"); sess.RotKeys() != nil {
		t.Error("a foreign connection installed rotation keys on the victim")
	}
	victim.checkIdentity(t, victim.computeRaw(t, 1, x), x)
}

// TestOpeningEndsAtSetup: once a Setup has registered, the opening is
// over, and a profile query or a Setup on that connection is a protocol
// violation. The server closes the connection without a reply, and its
// session leaves the store with it.
func TestOpeningEndsAtSetup(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	p := newRawPeer(t, 331)
	late := []struct {
		what  string
		ftype byte
		build func(b []byte) []byte
	}{
		{"profile query", frameProfile, func(b []byte) []byte {
			return appendProfileRequest(b, &ProfileRequest{SessionID: "again"})
		}},
		{"setup", frameSetup, func(b []byte) []byte { return appendSetupRequest(b, p.setupRequest(p.encKey(t))) }},
	}
	for _, l := range late {
		p.dial(t, srv.Addr())
		p.register(t, "opened")
		p.send(t, l.ftype, 9, l.build)
		p.expectClosed(t, "a "+l.what+" after Setup")
		waitSessionGone(t, srv, "opened")
		if _, ok := srv.SessionStats("again"); ok {
			t.Errorf("a %s after Setup registered a second session", l.what)
		}
	}
}

// TestIdleDeadlineStartsAtSetup: the idle deadline does not count the
// opening, which spans the client's key generation. A peer that sends its
// profile query, waits twice the idle timeout and only then sends Setup is
// registered and served.
func TestIdleDeadlineStartsAtSetup(t *testing.T) {
	const idle = 100 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: Model{Weights: []float64{1}}, IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := newRawPeer(t, 341)
	p.dial(t, srv.Addr())
	rep := p.session(t, frameProfile, func(b []byte) []byte {
		return appendProfileRequest(b, &ProfileRequest{SessionID: "slow-keygen"})
	})
	if replyError(rep.Code, rep.Err) != nil {
		t.Fatalf("profile query refused: %+v", rep)
	}
	time.Sleep(2 * idle)
	p.register(t, "slow-keygen")
	x := []float64{0.25}
	p.checkIdentity(t, p.computeRaw(t, 1, x), x)
}

// TestDialSpendsKeyOnlyAfterGrant: DialQKDWith draws its QKD key once the
// profile query is granted, so a dial refused before that — locally for an
// unknown profile, or at the query for a session ID already live — leaves
// the key centre's withdrawals where they were. The one withdrawal a good
// dial makes is attributed to the profile the server granted.
func TestDialSpendsKeyOnlyAfterGrant(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	kc := provisionedKeyCenter(t, "spend")
	ledger := qkd.NewLedger()
	kc.AttachLedger(ledger)
	withdrawals := func() int64 { return kc.Counters().Withdrawals }

	if _, err := DialQKDWith(srv.Addr(), "spend", kc, 351, DialConfig{Profile: "no-such-profile"}); !errors.Is(err, serve.ErrProfileDenied) {
		t.Fatalf("dial on an unknown profile: %v, want serve.ErrProfileDenied", err)
	}
	if n := withdrawals(); n != 0 {
		t.Errorf("a dial refused for its profile made %d withdrawals, want 0", n)
	}
	c, err := DialQKDWith(srv.Addr(), "spend", kc, 353, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := withdrawals(); n != 1 {
		t.Fatalf("a good dial made %d withdrawals, want 1", n)
	}
	if _, err := DialQKDWith(srv.Addr(), "spend", kc, 355, DialConfig{}); !errors.Is(err, serve.ErrDuplicateSession) {
		t.Fatalf("dial under a live ID: %v, want serve.ErrDuplicateSession", err)
	}
	if n := withdrawals(); n != 1 {
		t.Errorf("a dial refused as a duplicate withdrew: %d withdrawals, want 1", n)
	}
	if sessions := ledger.Snapshot().Sessions; len(sessions) != 1 || sessions[0].Profile != c.Profile() {
		t.Errorf("ledger sessions %+v, want one attributed to the granted profile %q", sessions, c.Profile())
	}
}

// TestSessionEndsWithConnection: however a connection ends — the client
// closes it, the server's idle deadline closes it, or the transport is
// cut — its session ends with it. The server holds no stats for it, the
// controller's next plan holds no budget for it, a call on the old client
// fails with serve.ErrConnClosed, and a redial under the same ID registers
// a fresh session at epoch 1.
func TestSessionEndsWithConnection(t *testing.T) {
	cases := []struct {
		name string
		idle time.Duration
		// end ends the client's connection, given the injector it dials
		// through.
		end func(t *testing.T, c *Client, inj *faultInjector)
	}{
		{"close", 0, func(t *testing.T, c *Client, _ *faultInjector) {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"idle", 300 * time.Millisecond, func(*testing.T, *Client, *faultInjector) {}},
		{"lost", 0, func(t *testing.T, _ *Client, inj *faultInjector) {
			if inj.CloseAll() != 1 {
				t.Fatal("no live connection to cut")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctl, err := control.New(control.Config{Network: qnet.SURFnet()})
			if err != nil {
				t.Fatal(err)
			}
			srv := startControlledServer(t, ctl, ServerConfig{IdleTimeout: tc.idle})
			inj := newFaultInjector(faultConfig{Seed: 13})
			const id = "lifetime"
			c, err := DialWith(srv.Addr(), id, []byte("lifetime-material"), 31, DialConfig{dialer: inj.Dialer(5 * time.Second)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Compute(0, []float64{0.5}); err != nil {
				t.Fatal(err)
			}
			plan, err := ctl.Replan()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := plan.RekeyBudget[id]; !ok {
				t.Fatal("the plan holds no budget for the live session")
			}

			tc.end(t, c, inj)
			waitSessionGone(t, srv, id)
			if _, err := c.Compute(1, []float64{0.5}); !errors.Is(err, serve.ErrConnClosed) {
				t.Errorf("compute after the connection ended: %v, want serve.ErrConnClosed", err)
			}
			if plan, err = ctl.Replan(); err != nil {
				t.Fatal(err)
			}
			if _, ok := plan.RekeyBudget[id]; ok {
				t.Error("the plan still budgets the ended session")
			}

			again, err := DialWith(srv.Addr(), id, []byte("lifetime-material-2"), 33, DialConfig{})
			if err != nil {
				t.Fatalf("redial under the same ID: %v", err)
			}
			defer again.Close()
			if _, err := again.Compute(0, []float64{0.5}); err != nil {
				t.Fatal(err)
			}
			if st, ok := srv.SessionStats(id); !ok || st.Epoch != 1 || st.Blocks != 1 || again.Epoch() != 1 {
				t.Errorf("redialed session: %+v (resident %v), client epoch %d; want a fresh session at epoch 1",
					st, ok, again.Epoch())
			}
		})
	}
}

// TestTeardownRemovesByIdentity: a session evicted from the table and
// registered again under its ID on another connection survives the
// teardown of the connection that registered it first, and serves.
func TestTeardownRemovesByIdentity(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: Model{Weights: []float64{1}}, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, other, second := newRawPeer(t, 311), newRawPeer(t, 313), newRawPeer(t, 315)
	for _, p := range []*rawPeer{first, other, second} {
		p.dial(t, srv.Addr())
	}
	first.register(t, "s")
	other.register(t, "t")  // evicts first's "s"
	second.register(t, "s") // evicts "t"
	if n := srv.Evictions(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
	first.conn.Close()
	waitConns(t, srv, 2)

	if _, ok := srv.SessionStats("s"); !ok {
		t.Fatal("the first connection's teardown removed the session registered after it")
	}
	x := []float64{0.25, -0.5}
	second.checkIdentity(t, second.computeRaw(t, 1, x), x)
	if rep := other.computeRaw(t, 1, x); rep.Code != serve.CodeUnknownSession {
		t.Errorf("evicted session served: %+v", rep)
	}
}
