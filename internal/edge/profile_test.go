package edge

import (
	"errors"
	"math"
	"sync"
	"testing"

	"quhe/internal/he/profile"
	"quhe/internal/serve"
)

// sessionProfile reports the security profile the server registered a
// session on.
func sessionProfile(srv *Server, sessionID string) (string, bool) {
	sess, ok := srv.store.Peek(sessionID)
	if !ok {
		return "", false
	}
	return sess.Profile, true
}

// TestMixedProfileSessions is the acceptance-criterion test: two
// concurrent sessions on different security profiles — independently
// keyed contexts at different ring degrees — compute correct results on
// one server, interleaved, and each block is counted in its own
// profile's eval histogram.
func TestMixedProfileSessions(t *testing.T) {
	model := Model{Weights: []float64{0.5, -0.25}, Bias: []float64{0.1, 0.2}}
	srv := startServer(t, model)

	profiles := []string{profile.IDLambda32k, profile.IDLambda64k}
	clients := make([]*Client, len(profiles))
	for i, id := range profiles {
		c, err := DialWith(srv.Addr(), "mixed-"+id, []byte("k-"+id), int64(11+i),
			DialConfig{Profile: id})
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		defer c.Close()
		clients[i] = c
		if got := c.Profile(); got != id {
			t.Fatalf("client %d negotiated %q, want %q", i, got, id)
		}
		if got, ok := sessionProfile(srv, c.SessionID()); !ok || got != id {
			t.Fatalf("server records profile %q (ok=%v) for %s, want %q", got, ok, c.SessionID(), id)
		}
	}
	// The two sessions run at genuinely different ring degrees.
	if clients[0].Slots() >= clients[1].Slots() {
		t.Fatalf("slot capacities %d/%d not increasing across profiles",
			clients[0].Slots(), clients[1].Slots())
	}

	data := []float64{0.8, -0.4}
	var wg sync.WaitGroup
	for ci, c := range clients {
		ci, c := ci, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for blk := uint32(0); blk < 4; blk++ {
				got, err := c.Compute(blk, data)
				if err != nil {
					t.Errorf("client %d block %d: %v", ci, blk, err)
					return
				}
				for i, x := range data {
					want := model.Weights[i]*x + model.Bias[i]
					if math.Abs(got[i]-want) > 0.05 {
						t.Errorf("client %d block %d slot %d: got %g, want %g", ci, blk, i, got[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if srv.store.Len() != 2 {
		t.Errorf("%d sessions resident, want 2", srv.store.Len())
	}

	// A served block raises its own profile's eval count and no other's,
	// the unserved λ-128k's included. The registry hands back the series
	// /metrics exports, so this also holds each runtime's held histogram
	// to the exported one.
	evalCount := func(id string) int64 {
		return srv.met.reg.Histogram("quhe_eval_seconds", "", "profile", id).Snapshot().Count
	}
	before := map[string]int64{}
	for _, id := range []string{profiles[0], profiles[1], profile.IDLambda128k} {
		before[id] = evalCount(id)
	}
	if before[profiles[0]] != 4 || before[profiles[1]] != 4 {
		t.Errorf("eval counts %v after 4 blocks per profile", before)
	}
	if _, err := clients[0].Compute(4, data); err != nil {
		t.Fatal(err)
	}
	for id, n := range before {
		want := n
		if id == profiles[0] {
			want++
		}
		if got := evalCount(id); got != want {
			t.Errorf("%s eval count %d after one %s block, want %d", id, got, profiles[0], want)
		}
	}
}

// TestControllerSteersEmptyRequest: a client that does not ask for a
// profile is steered to the control plane's choice, and the controller
// observes the registration with that profile.
func TestControllerSteersEmptyRequest(t *testing.T) {
	ctl := &fakeControl{}
	ctl.steer.Store(profile.IDLambda64k)
	srv := startControlledServer(t, ctl, ServerConfig{})
	c, err := DialWith(srv.Addr(), "steer-me", []byte("k"), 9, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Profile(); got != profile.IDLambda64k {
		t.Errorf("steered profile = %q, want %q", got, profile.IDLambda64k)
	}
	if ctl.negotiated.Load() == 0 {
		t.Error("NegotiateProfile never consulted")
	}
	if p, ok := ctl.sessions.Load("steer-me"); !ok || p.(string) != profile.IDLambda64k {
		t.Errorf("ObserveSession recorded %v (ok=%v)", p, ok)
	}
	// The steered session computes correctly at the steered degree.
	got, err := c.Compute(0, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 0.05 {
		t.Errorf("steered compute = %g, want 0.5", got[0])
	}
}

// TestProfileDowngradePerPlan: an explicit request above the plan's
// profile for the route is downgraded end to end — the client ends up
// on the planned profile, not the requested one.
func TestProfileDowngradePerPlan(t *testing.T) {
	ctl := &fakeControl{}
	ctl.steer.Store(profile.IDLambda32k)
	srv := startControlledServer(t, ctl, ServerConfig{})
	c, err := DialWith(srv.Addr(), "downgrade-me", []byte("k"), 61,
		DialConfig{Profile: profile.IDLambda128k})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Profile(); got != profile.IDLambda32k {
		t.Errorf("downgraded profile = %q, want %q", got, profile.IDLambda32k)
	}
	if got, _ := sessionProfile(srv, "downgrade-me"); got != profile.IDLambda32k {
		t.Errorf("server registered %q, want the downgrade", got)
	}
}

// TestSetupEnforcesPlanProfile: a Setup names no profile, so a peer can
// only register what the plan granted it. A Setup on a connection with no
// grant — a raw peer that skips the profile query, or one whose query was
// refused — closes the connection without a reply and registers nothing.
func TestSetupEnforcesPlanProfile(t *testing.T) {
	ctl := &fakeControl{}
	ctl.steer.Store(profile.IDLambda32k)
	srv := startControlledServer(t, ctl, ServerConfig{})
	p := newRawPeer(t, 131)
	for _, c := range []struct {
		what  string
		query string // requested profile; "" sends no query
	}{
		{"a Setup with no query", ""},
		{"a Setup after a refused query", "no-such-profile"},
	} {
		p.dial(t, srv.Addr())
		if c.query != "" {
			rep := p.session(t, frameProfile, func(b []byte) []byte {
				return appendProfileRequest(b, &ProfileRequest{SessionID: "bypass", Requested: c.query})
			})
			if rep.Code != serve.CodeProfileDenied {
				t.Fatalf("query for %q: %+v, want CodeProfileDenied", c.query, rep)
			}
		}
		p.send(t, frameSetup, 9, func(b []byte) []byte { return appendSetupRequest(b, p.setupRequest(p.encKey(t))) })
		p.expectClosed(t, c.what)
	}
	if n, admits := srv.store.Len(), ctl.admits.Load(); n != 0 || admits != 0 {
		t.Errorf("%d sessions resident and %d admitted after Setups with no grant", n, admits)
	}
}

// TestProfileQueryNeedsSessionID: the profile query names the session, so
// a query with an empty ID is refused as a bad request and grants nothing.
func TestProfileQueryNeedsSessionID(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	p := newRawPeer(t, 133)
	p.dial(t, srv.Addr())
	rep := p.session(t, frameProfile, func(b []byte) []byte {
		return appendProfileRequest(b, &ProfileRequest{})
	})
	if rep.Code != serve.CodeBadRequest || rep.Profile != "" {
		t.Fatalf("query with an empty session ID: %+v, want CodeBadRequest", rep)
	}
	p.send(t, frameSetup, 9, func(b []byte) []byte { return appendSetupRequest(b, p.setupRequest(p.encKey(t))) })
	p.expectClosed(t, "a Setup after a query with an empty session ID")
	checkSessions(t, srv, "after a query with an empty session ID", 0)
}

// TestStaleGrantRedials: a replan that lowers the route's λ between the
// profile query and Setup makes the grant stale. The Setup is refused
// CodeProfileDenied and registers nothing; DialQKDWith then renegotiates
// on a fresh connection, lands on the lowered profile and draws its QKD
// key once.
func TestStaleGrantRedials(t *testing.T) {
	stale := func(t *testing.T) (*fakeControl, *Server) {
		ctl := &fakeControl{}
		ctl.steer.Store(profile.IDLambda64k)
		ctl.lowerTo.Store(profile.IDLambda32k)
		return ctl, startControlledServer(t, ctl, ServerConfig{})
	}
	t.Run("setup refused", func(t *testing.T) {
		ctl, srv := stale(t)
		p := newRawPeerOn(t, 137, profile.IDLambda64k)
		p.dial(t, srv.Addr())
		p.grant(t, "stale")
		if rep := p.setup(t, p.setupRequest(p.encKey(t))); rep.Code != serve.CodeProfileDenied {
			t.Fatalf("Setup on a stale grant: %+v, want CodeProfileDenied", rep)
		}
		if n, admits := srv.store.Len(), ctl.admits.Load(); n != 0 || admits != 0 {
			t.Errorf("%d sessions resident and %d admitted after a stale grant", n, admits)
		}
	})
	t.Run("dial redials", func(t *testing.T) {
		ctl, srv := stale(t)
		kc := provisionedKeyCenter(t, "stale")
		c, err := DialQKDWith(srv.Addr(), "stale", kc, 139, DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.Profile(); got != profile.IDLambda32k {
			t.Errorf("redialed onto %q, want %q", got, profile.IDLambda32k)
		}
		if got, _ := sessionProfile(srv, "stale"); got != profile.IDLambda32k {
			t.Errorf("server registered %q, want %q", got, profile.IDLambda32k)
		}
		// Two openings, each a query and a Setup.
		if n := ctl.negotiated.Load(); n != 4 {
			t.Errorf("%d negotiations, want 4", n)
		}
		if n := kc.Counters().Withdrawals; n != 1 {
			t.Errorf("the dial made %d withdrawals, want 1", n)
		}
	})
}

// TestUnknownProfileDenied: requesting a profile the registry does not
// know fails locally; a server-side denial is typed on the wire.
func TestUnknownProfileDenied(t *testing.T) {
	srv := startServer(t, Model{Weights: []float64{1}})
	if _, err := DialWith(srv.Addr(), "nope", []byte("k"), 31,
		DialConfig{Profile: "no-such-profile"}); !errors.Is(err, serve.ErrProfileDenied) {
		t.Errorf("unknown profile err = %v, want serve.ErrProfileDenied", err)
	}
}

// wantCmpDelay is the profile registry's price of blocks served blocks on
// the client's profile, each carrying rots hoisted rotations — the one
// cost model: what a reply's ModeledCmpDelay must equal, and what the
// planner's delay term reads at one block per second.
func wantCmpDelay(t *testing.T, c *Client, blocks, rots int) float64 {
	t.Helper()
	prof, ok := profile.Default().Get(c.Profile())
	if !ok {
		t.Fatalf("client on unregistered profile %q", c.Profile())
	}
	perBlock := (prof.CyclesPerBlock() + float64(rots)*prof.CyclesPerRotation()) / profile.RefHz
	if planner := prof.ServeDelaySec(8*float64(prof.Slots()), float64(rots), profile.RefHz); planner != perBlock {
		t.Errorf("planner prices one block/s with %d rotations at %g s, registry at %g s", rots, planner, perBlock)
	}
	return float64(blocks) * perBlock
}
