package control_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/edge"
	"quhe/internal/he/profile"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// TestNegotiateProfileSteersAndDowngrades pins the negotiation contract:
// empty requests follow the plan's per-route profile, requests above the
// planned λ are downgraded to it, requests at or below pass, and unknown
// profiles are denied typed.
func TestNegotiateProfileSteersAndDowngrades(t *testing.T) {
	net := qnet.SURFnet()
	ctl, err := control.New(control.Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	plan := ctl.Plan()
	if len(plan.RouteProfile) != net.NumRoutes() || len(plan.RouteLambda) != net.NumRoutes() {
		t.Fatalf("plan routes: %d profiles, %d lambdas, want %d each",
			len(plan.RouteProfile), len(plan.RouteLambda), net.NumRoutes())
	}
	// At idle every route runs the highest security level.
	for r, id := range plan.RouteProfile {
		if id != profile.IDLambda128k {
			t.Errorf("idle route %d planned %q, want %q", r, id, profile.IDLambda128k)
		}
	}
	on0 := func(name string) string { return control.SessionOnRoute(net.NumRoutes(), 0, name) }
	got, err := ctl.NegotiateProfile(on0("steered"), "")
	if err != nil || got != profile.IDLambda128k {
		t.Errorf("empty request → (%q, %v), want plan profile %q", got, err, profile.IDLambda128k)
	}
	// An explicit request at or below the plan is honored as asked.
	got, err = ctl.NegotiateProfile(on0("explicit"), profile.IDLambda32k)
	if err != nil || got != profile.IDLambda32k {
		t.Errorf("explicit request → (%q, %v), want %q", got, err, profile.IDLambda32k)
	}
	// Unknown profiles are denied typed.
	if _, err := ctl.NegotiateProfile(on0("bogus"), "no-such-profile"); !errors.Is(err, serve.ErrProfileDenied) {
		t.Errorf("unknown profile err = %v, want serve.ErrProfileDenied", err)
	}
}

// TestRoutePinnedByLambdaSet: a single-element LambdaSet pins every
// route's actuation to the matching profile, and requests above it are
// downgraded — the "server may downgrade per the active plan" rule.
func TestRoutePinnedByLambdaSet(t *testing.T) {
	net := qnet.SURFnet()
	ctl, err := control.New(control.Config{
		Network: net, LambdaSet: []float64{32768},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, id := range ctl.Plan().RouteProfile {
		if id != profile.IDLambda32k {
			t.Errorf("pinned route %d planned %q, want %q", r, id, profile.IDLambda32k)
		}
	}
	got, err := ctl.NegotiateProfile(control.SessionOnRoute(net.NumRoutes(), 1, "high"), profile.IDLambda128k)
	if err != nil {
		t.Fatal(err)
	}
	if got != profile.IDLambda32k {
		t.Errorf("request above plan granted %q, want downgrade to %q", got, profile.IDLambda32k)
	}
}

// TestUnknownLambdaRefused: a λ no registered profile runs is refused by
// New, named in the error, rather than dropped from the choice.
func TestUnknownLambdaRefused(t *testing.T) {
	_, err := control.New(control.Config{Network: qnet.SURFnet(), LambdaSet: []float64{12345}})
	if err == nil || !strings.Contains(err.Error(), "12345") {
		t.Errorf("New with λ set {12345}: err = %v, want a refusal naming 12345", err)
	}
}

// TestReplanMovesRouteLambda is the acceptance-criterion test: heavy
// demand reported for one route's sessions pulls that route's λ down on
// the next replan — and only that route — so the profile assigned to the
// next new session on the route changes while idle routes keep the
// highest level.
func TestReplanMovesRouteLambda(t *testing.T) {
	net := qnet.SURFnet()
	routes := net.NumRoutes()
	ctl, err := control.New(control.Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	on1 := func(name string) string { return control.SessionOnRoute(routes, 1, name) }
	if got, _ := ctl.NegotiateProfile(on1("before"), ""); got != profile.IDLambda128k {
		t.Fatalf("pre-demand steering = %q, want %q", got, profile.IDLambda128k)
	}

	// Report crushing demand on route 1: two observation rounds so the
	// second snapshot sees a byte delta over a measurable dt.
	tel := ctl.Telemetry()
	tel.ObserveCompute(on1("hot"), 1<<26, 5*time.Millisecond, serve.CodeOK)
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	tel.ObserveCompute(on1("hot"), 1<<26, 5*time.Millisecond, serve.CodeOK)
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.RouteProfile[1] == profile.IDLambda128k {
		t.Fatalf("route 1 still planned %q under %.0f B/s demand; RouteLambda=%v",
			plan.RouteProfile[1], plan.DemandBytesPerSec, plan.RouteLambda)
	}
	for r := 0; r < routes; r++ {
		if r != 1 && plan.RouteProfile[r] != profile.IDLambda128k {
			t.Errorf("idle route %d moved to %q", r, plan.RouteProfile[r])
		}
	}
	// The next new session on route 1 is steered to the new profile.
	got, err := ctl.NegotiateProfile(on1("after"), "")
	if err != nil {
		t.Fatal(err)
	}
	if got != plan.RouteProfile[1] {
		t.Errorf("post-replan steering = %q, want plan's %q", got, plan.RouteProfile[1])
	}
}

// TestReplanSteersNextSessionEndToEnd is the full acceptance loop over a
// live server: a controller replan that moves a route's λ changes the
// profile assigned to the next new session dialing on that route, while
// the earlier session keeps the profile it registered on.
func TestReplanSteersNextSessionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-plane integration test")
	}
	net := qnet.SURFnet()
	ctl, err := control.New(control.Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	on2 := func(name string) string { return control.SessionOnRoute(net.NumRoutes(), 2, name) }
	firstID, secondID := on2("first"), on2("second")
	srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model:   edge.Model{Weights: []float64{1}},
		Workers: 2,
		Control: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// First session on route 2: steered to the idle plan's highest level.
	first, err := edge.DialWith(srv.Addr(), firstID, []byte("k"), 51, edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if got := first.Profile(); got != profile.IDLambda128k {
		t.Fatalf("first session profile = %q, want %q", got, profile.IDLambda128k)
	}
	if _, err := first.Compute(0, []float64{0.5}); err != nil {
		t.Fatalf("first session compute: %v", err)
	}

	// Crushing demand lands on route 2; the next replan moves its λ down.
	tel := ctl.Telemetry()
	tel.ObserveCompute(on2("hot"), 1<<26, 5*time.Millisecond, serve.CodeOK)
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	tel.ObserveCompute(on2("hot"), 1<<26, 5*time.Millisecond, serve.CodeOK)
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.RouteProfile[2] == profile.IDLambda128k {
		t.Fatalf("route 2 still planned %q after demand surge", plan.RouteProfile[2])
	}

	// The next new session on the route lands on the moved profile...
	second, err := edge.DialWith(srv.Addr(), secondID, []byte("k"), 52, edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.Profile(); got != plan.RouteProfile[2] {
		t.Errorf("second session profile = %q, want plan's %q", got, plan.RouteProfile[2])
	}
	if _, err := second.Compute(0, []float64{0.5}); err != nil {
		t.Fatalf("second session compute: %v", err)
	}
	// ...while the first keeps what it registered on, and the server
	// reports both to the controller.
	if got := tel.SessionProfile(firstID); got != profile.IDLambda128k {
		t.Errorf("first session migrated to %q", got)
	}
	if got := tel.SessionProfile(secondID); got != plan.RouteProfile[2] {
		t.Errorf("server reported %q for second session, want %q", got, plan.RouteProfile[2])
	}
}

// TestShedTrafficFeedsDemand is the demand-predictor satellite: admission
// denials must register as demand, so a fully shed session does not look
// idle to the planner, without counting as served blocks.
func TestShedTrafficFeedsDemand(t *testing.T) {
	net := qnet.SURFnet()
	ctl, err := control.New(control.Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	tel := ctl.Telemetry()
	tel.ObserveShed("shed-only", 1<<20)
	if _, err := ctl.Replan(); err != nil { // baseline snapshot for the session
		t.Fatal(err)
	}
	tel.ObserveShed("shed-only", 1<<20)
	time.Sleep(10 * time.Millisecond)
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.DemandBytesPerSec <= 0 {
		t.Errorf("demand %.0f B/s after shed-only traffic, want > 0", plan.DemandBytesPerSec)
	}
	snap := tel.Snapshot()
	var found bool
	for _, s := range snap.Sessions {
		if s.ID == "shed-only" {
			found = true
			if s.BytesPerSec <= 0 {
				t.Errorf("shed-only session demand %.0f B/s, want > 0", s.BytesPerSec)
			}
			if s.Blocks != 0 {
				t.Errorf("shed traffic counted as %d served blocks", s.Blocks)
			}
		}
	}
	if !found {
		t.Error("shed-only session missing from snapshot")
	}
}

// TestProfileTelemetryAggregates pins the per-profile telemetry the
// planner reads: served blocks of sessions registered on distinct
// profiles aggregate separately, and a failed block serves nothing.
func TestProfileTelemetryAggregates(t *testing.T) {
	tel := control.NewTelemetry()
	tel.ObserveSession("a", profile.IDLambda32k)
	tel.ObserveSession("b", profile.IDLambda64k)
	tel.ObserveSession("c", profile.IDLambda64k)
	tel.ObserveCompute("a", 100, time.Millisecond, serve.CodeOK)
	tel.ObserveCompute("b", 200, 2*time.Millisecond, serve.CodeOK)
	tel.ObserveCompute("c", 300, 4*time.Millisecond, serve.CodeOK)
	tel.ObserveCompute("c", 300, 4*time.Millisecond, serve.CodeOverloaded)
	snap := tel.Snapshot()
	lo := snap.Profiles[profile.IDLambda32k]
	hi := snap.Profiles[profile.IDLambda64k]
	if lo.Blocks != 1 || hi.Blocks != 2 {
		t.Errorf("profile served blocks: %d/%d, want 1/2", lo.Blocks, hi.Blocks)
	}
	if tel.SessionProfile("b") != profile.IDLambda64k {
		t.Errorf("SessionProfile(b) = %q", tel.SessionProfile("b"))
	}
}

// TestReplanActuatesSessionCap: a replan moves the store's session cap
// to the admission capacity — the rotations a 128-byte key stock funds —
// clamped to the built ceiling, and the store holds that cap exactly.
func TestReplanActuatesSessionCap(t *testing.T) {
	net := qnet.SURFnet()
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("stock", 0); err != nil {
		t.Fatal(err)
	}
	if err := kc.Deposit("stock", make([]byte, 4*serve.RekeyWithdrawBytes)); err != nil {
		t.Fatal(err)
	}
	ctl, err := control.New(control.Config{Network: net, KeyCenter: kc})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model:       edge.Model{Weights: []float64{1}},
		Workers:     2,
		QueueDepth:  16,
		MaxSessions: 64,
		Control:     ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.AdmitCapacity != 4 {
		t.Errorf("admit capacity %d, want 4 (128 stock bytes / %d per rotation)", plan.AdmitCapacity, serve.RekeyWithdrawBytes)
	}
	// The server's store, built for 64, holds exactly the planned 4.
	store := ctl.Telemetry().Store()
	for i := 0; i < 8; i++ {
		if err := store.Register(serve.NewSession(fmt.Sprintf("s%d", i), "", nil, nil, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 4 || store.Evictions() != 4 {
		t.Errorf("store at plan capacity 4 holds %d sessions after 8 registrations (%d evictions), want 4 (4)",
			store.Len(), store.Evictions())
	}
}

// TestControlledServerKeepsQueueDepth: the plan has no queue term, so a
// replan leaves a controlled server's scheduler at the depth it was
// built with, read where an operator reads it — the debug plane's
// /metrics.
func TestControlledServerKeepsQueueDepth(t *testing.T) {
	ctl, err := control.New(control.Config{Network: qnet.SURFnet()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model:      edge.Model{Weights: []float64{1}},
		Workers:    2,
		QueueDepth: 16,
		Control:    ctl,
		DebugAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.DebugAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const series = "quhe_serve_queue_capacity "
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			if v != "16" {
				t.Errorf("%s%s after a replan, want 16 (the built QueueDepth)", series, v)
			}
			return
		}
	}
	t.Fatalf("no %q sample on /metrics", series)
}

// TestStage2CouplesRoutes: the λ choice is one program over every route,
// whose delay term is the largest route delay. Route 1's demand sets that
// max at any λ route 2 can take, so route 1 steps down while route 2,
// carrying an eighth of its bytes, keeps the highest security level —
// where scoring each route alone stepped route 2 down as well. The plan
// reads the same for any gap between the snapshots from 2 ms to 300 ms
// (the sleep is 20).
func TestStage2CouplesRoutes(t *testing.T) {
	net := qnet.SURFnet()
	routes := net.NumRoutes()
	ctl, err := control.New(control.Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	heavy := control.SessionOnRoute(routes, 1, "heavy")
	light := control.SessionOnRoute(routes, 2, "light")
	tel := ctl.Telemetry()
	report := func() {
		tel.ObserveCompute(heavy, 1<<26, 5*time.Millisecond, serve.CodeOK)
		tel.ObserveCompute(light, 1<<23, 5*time.Millisecond, serve.CodeOK)
	}
	report()
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	report()
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.RouteProfile[1] != profile.IDLambda32k || plan.RouteProfile[2] != profile.IDLambda128k {
		t.Errorf("routes 1 and 2 planned %q and %q, want %q and %q (RouteLambda=%v)",
			plan.RouteProfile[1], plan.RouteProfile[2], profile.IDLambda32k, profile.IDLambda128k, plan.RouteLambda)
	}
}
