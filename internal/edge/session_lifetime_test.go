package edge

// A session lives exactly as long as the connection that registered it,
// and only that connection may name it.

import (
	"errors"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"quhe/internal/control"
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

// computeRaw sends one Compute block of session id at epoch 1 and returns
// the reply.
func (p *rawPeer) computeRaw(t *testing.T, id string, block uint32, x []float64) *ComputeReply {
	t.Helper()
	req := &ComputeRequest{SessionID: id, Block: block, Epoch: 1, Masked: p.mask(t, block, x)}
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

// TestForeignSessionRefused: a second connection names another
// connection's session in a Rekey, a rotation key and a Compute. Each is
// refused as an unknown session, the victim stays at epoch 1 with no
// rotation keys, and its next block decodes under the key it registered.
func TestForeignSessionRefused(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}, Matrix: testMatrix, MatrixBias: testMatrixBias})
	victim := newRawPeer(t, 301)
	victim.dial(t, srv.Addr())
	victim.register(t, "victim")

	intruder := newRawPeer(t, 303)
	intruder.dial(t, srv.Addr())
	x := []float64{0.5, -0.25, 0.125, 1}
	refusals := map[string]serve.Code{
		"rekey": intruder.session(t, frameRekey, func(b []byte) []byte {
			return appendRekeyRequest(b, &RekeyRequest{SessionID: "victim", EncKey: intruder.encKey(t), Nonce: []byte("edge:intrude")})
		}).Code,
		"rotation key": intruder.uploadKey(t, intruder.rotKeys("victim", 305, len(testMatrix))[0]).Code,
		"compute":      intruder.computeRaw(t, "victim", 1, x).Code,
	}
	for what, code := range refusals {
		if code != serve.CodeUnknownSession {
			t.Errorf("foreign %s: code %v, want %v", what, code, serve.CodeUnknownSession)
		}
	}

	st, ok := srv.SessionStats("victim")
	if !ok || st.Epoch != 1 || st.Rekeys != 0 || st.Blocks != 0 {
		t.Fatalf("victim after the foreign requests: %+v (resident %v), want epoch 1, untouched", st, ok)
	}
	if sess, _ := srv.store.Peek("victim"); sess.RotKeys() != nil {
		t.Error("a foreign connection installed rotation keys on the victim")
	}
	victim.checkIdentity(t, victim.computeRaw(t, "victim", 1, x), x)
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
		// Long enough that the deadline cannot fire inside the dial, whose
		// key generation runs between two frames, under -race too.
		{"idle", 2 * time.Second, func(*testing.T, *Client, *faultInjector) {}},
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
	second.checkIdentity(t, second.computeRaw(t, "s", 1, x), x)
	if rep := other.computeRaw(t, "t", 1, x); rep.Code != serve.CodeUnknownSession {
		t.Errorf("evicted session served: %+v", rep)
	}
}

// TestConnectionPinsOnlyResidentSessions: a connection that registers
// session after session past the store's cap holds on to the resident
// ones only, so the key material it pins is bounded by the cap and not
// by the Setups it sent.
func TestConnectionPinsOnlyResidentSessions(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Model: Model{Weights: []float64{1}}, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := newRawPeer(t, 321)
	p.dial(t, srv.Addr())
	for _, id := range []string{"a", "b", "c", "d"} {
		p.register(t, id)
	}
	srv.mu.Lock()
	var cs *connState
	for _, c := range srv.conns {
		cs = c
	}
	srv.mu.Unlock()
	// The decode loop owns cs.sessions. Its teardown forgets the
	// connection under srv.mu, after its last write to the map, so once
	// the connection is forgotten the map can be read here.
	p.conn.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the connection was never torn down")
		}
	}
	pinned := slices.Sorted(maps.Keys(cs.sessions))
	if !slices.Equal(pinned, []string{"c", "d"}) {
		t.Errorf("the connection pinned sessions %v, want the resident c, d", pinned)
	}
}
