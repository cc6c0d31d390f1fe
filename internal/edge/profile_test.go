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

// TestSetupEnforcesPlanProfile: a Setup that declares a profile above the
// plan — a client bypassing (or ignoring) the advisory negotiation, here a
// raw peer that skips the profile query — is denied typed at registration,
// so the per-route λ policy cannot be sidestepped.
func TestSetupEnforcesPlanProfile(t *testing.T) {
	ctl := &fakeControl{}
	ctl.steer.Store(profile.IDLambda32k)
	srv := startControlledServer(t, ctl, ServerConfig{})
	prof, _ := profile.Default().Get(profile.IDLambda128k)
	p := newRawPeer(t, 131)
	p.dial(t, srv.Addr())
	// The plan check comes before the key material is validated, so the
	// peer's default-profile keys never reach the λ-128k ring.
	req := p.setupRequest("bypass", p.encKey(t))
	req.LogN, req.Depth, req.Profile = prof.Params.LogN, prof.Params.Depth, profile.IDLambda128k
	if rep := p.setup(t, req); rep.Code != serve.CodeProfileDenied {
		t.Fatalf("bypass setup reply = %+v, want CodeProfileDenied", rep)
	}
	if srv.store.Len() != 0 {
		t.Errorf("%d sessions resident after denied bypass", srv.store.Len())
	}
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
