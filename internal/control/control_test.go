package control_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quhe/internal/control"
	"quhe/internal/costmodel"
	"quhe/internal/edge"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// The controller must satisfy the edge server's control-plane hook.
var _ edge.Controller = (*control.Controller)(nil)

// TestDeriveRekeyBudgetMonotoneInMSL is the satellite property test: the
// derived budget is monotone non-decreasing in f_msl(λ) — more HE
// security lets one key cover more bytes, never fewer — and never derives
// a positive base to zero.
func TestDeriveRekeyBudgetMonotoneInMSL(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const base = 1 << 20
	for trial := 0; trial < 500; trial++ {
		l1 := 32768 * (0.25 + 8*rng.Float64()) // λ from 2^13 to ~2^18
		l2 := 32768 * (0.25 + 8*rng.Float64())
		b1 := control.DeriveRekeyBudget(base, l1)
		b2 := control.DeriveRekeyBudget(base, l2)
		m1 := costmodel.MinSecurityLevel(l1)
		m2 := costmodel.MinSecurityLevel(l2)
		if m1 <= m2 && b1 > b2 {
			t.Fatalf("budget not monotone: msl %g→%d bytes, msl %g→%d bytes", m1, b1, m2, b2)
		}
		if m2 <= m1 && b2 > b1 {
			t.Fatalf("budget not monotone: msl %g→%d bytes, msl %g→%d bytes", m2, b2, m1, b1)
		}
		if b1 < 1 || b2 < 1 {
			t.Fatalf("positive base derived to non-positive budget: %d, %d", b1, b2)
		}
	}
	if got := control.DeriveRekeyBudget(base, control.LambdaRef); got != base {
		t.Errorf("budget at λ_ref = %d, want exactly base %d", got, base)
	}
	if got := control.DeriveRekeyBudget(0, control.LambdaRef); got != 0 {
		t.Errorf("zero base must stay disabled, got %d", got)
	}
}

func TestReplanFeasibleAndActuates(t *testing.T) {
	net := qnet.SURFnet()
	kc := qkd.NewKeyCenter()
	ctl, err := control.New(control.Config{Network: net, KeyCenter: kc})
	if err != nil {
		t.Fatal(err)
	}
	plan := ctl.Plan()
	if plan == nil {
		t.Fatal("no plan after New")
	}
	if !net.FeasibleRates(plan.Phi) {
		t.Errorf("plan allocation infeasible: %v", plan.Phi)
	}
	if plan.DefaultRekeyBudget < 1 {
		t.Errorf("default budget %d, want ≥ 1", plan.DefaultRekeyBudget)
	}
	// Actuation: every route's client is provisioned with a positive
	// secret-key rate (the allocation keeps the SKF strictly positive), so
	// its key pool has a finite, positive refill wait.
	for r := 0; r < net.NumRoutes(); r++ {
		id := fmt.Sprintf("client-%d", r+1)
		if wait := kc.RefillWait(id, 1<<20); wait <= 0 {
			t.Errorf("route %d client refill wait %v: unprovisioned or provisioned at rate 0", r, wait)
		}
	}
	// Replanning bumps the sequence and never loses the budget floor.
	p2, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Seq <= plan.Seq {
		t.Errorf("replan seq %d not after %d", p2.Seq, plan.Seq)
	}
}

// TestBudgetTracksSecurityLevel pins the U_msl coupling end to end: a
// controller planning at a higher λ derives a proportionally larger
// per-key budget, and a session's budget follows the λ it actually runs
// from its first block — also before the plan has seen it.
func TestBudgetTracksSecurityLevel(t *testing.T) {
	net := qnet.SURFnet()
	const base = 1 << 20
	budgets := make([]int64, 0, 3)
	for _, lambda := range []float64{32768, 65536, 131072} {
		ctl, err := control.New(control.Config{
			Network: net, LambdaSet: []float64{lambda}, BaseRekeyBytes: base,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := ctl.Plan()
		for r, got := range plan.RouteLambda {
			if got != lambda {
				t.Fatalf("route %d λ = %g, want %g (single-element set)", r, got, lambda)
			}
		}
		want := control.DeriveRekeyBudget(base, lambda)
		if plan.DefaultRekeyBudget != want {
			t.Errorf("λ=%g: budget %d, want %d", lambda, plan.DefaultRekeyBudget, want)
		}
		budgets = append(budgets, plan.DefaultRekeyBudget)
	}
	if !(budgets[0] < budgets[1] && budgets[1] < budgets[2]) {
		t.Errorf("budgets %v not increasing with λ", budgets)
	}

	// First plan interval: a few hundred B/s through one session leave
	// every route at λ-128k. Sessions registering before the next replan
	// are budgeted at the λ of the profile they were granted — steered or
	// requested — and the fallback is the budget of a λ some route runs.
	ctl, err := control.New(control.Config{
		Network: net, BaseRekeyBytes: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := ctl.Telemetry()
	tel.ObserveCompute(control.SessionOnRoute(net.NumRoutes(), 0, "busy"), 16, time.Millisecond, serve.CodeOK)
	if _, err := ctl.Replan(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	tel.ObserveCompute(control.SessionOnRoute(net.NumRoutes(), 0, "busy"), 16, time.Millisecond, serve.CodeOK)
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.DemandBytesPerSec < 200 {
		t.Fatalf("demand %.0f B/s, want ≥ 200", plan.DemandBytesPerSec)
	}
	for r, got := range plan.RouteLambda {
		if got != 131072 {
			t.Fatalf("route %d stepped down to λ=%g at %.0f B/s", r, got, plan.DemandBytesPerSec)
		}
	}
	at128k, at32k := control.DeriveRekeyBudget(base, 131072), control.DeriveRekeyBudget(base, 32768)
	if plan.DefaultRekeyBudget != at128k {
		t.Errorf("default budget %d, want %d: the lowest λ any route runs is 2^17", plan.DefaultRekeyBudget, at128k)
	}
	for _, c := range []struct {
		id, request string
		want        int64
	}{
		{control.SessionOnRoute(net.NumRoutes(), 1, "steered"), "", at128k},
		{control.SessionOnRoute(net.NumRoutes(), 1, "asked-low"), profile.IDLambda32k, at32k},
	} {
		granted, err := ctl.NegotiateProfile(c.id, c.request)
		if err != nil {
			t.Fatal(err)
		}
		ctl.ObserveSession(c.id, granted)
		if got := ctl.RekeyBudget(c.id); got != c.want {
			t.Errorf("%s on %s: first-interval budget %d, want %d", c.id, granted, got, c.want)
		}
	}
}

func TestAdmitSessionCapacityAndStock(t *testing.T) {
	net := qnet.SURFnet()
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("funded", 0); err != nil {
		t.Fatal(err)
	}
	if err := kc.Deposit("funded", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := kc.Provision("starved", 0); err != nil {
		t.Fatal(err)
	}
	if err := kc.Deposit("starved", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	ctl, err := control.New(control.Config{Network: net, KeyCenter: kc})
	if err != nil {
		t.Fatal(err)
	}
	plan := ctl.Plan()
	if plan.AdmitCapacity < 1 {
		t.Fatalf("capacity %d, want ≥ 1", plan.AdmitCapacity)
	}
	if err := ctl.AdmitSession("funded", 0); err != nil {
		t.Errorf("funded session denied: %v", err)
	}
	if err := ctl.AdmitSession("starved", 0); !errors.Is(err, serve.ErrKeyExhausted) {
		t.Errorf("starved session err = %v, want ErrKeyExhausted", err)
	}
	// A provisioned rate turns the shortfall into a concrete retry hint.
	if err := kc.Provision("starved", 1000); err != nil {
		t.Fatal(err)
	}
	var ke *serve.KeyExhaustedError
	if err := ctl.AdmitSession("starved", 0); !errors.As(err, &ke) || ke.RetryAfter <= 0 {
		t.Errorf("starved session err = %v, want a positive retry hint", err)
	}
	// Over plan capacity every Setup is shed regardless of stock.
	if err := ctl.AdmitSession("funded", plan.AdmitCapacity); !errors.Is(err, serve.ErrAdmissionDenied) {
		t.Errorf("over-capacity err = %v, want ErrAdmissionDenied", err)
	}
}

// TestEvictedSessionLeavesPlan: a registered session's telemetry lives as
// long as the bound store keeps the session. A session the store evicted
// is absent from the next snapshot and from the plan's budgets, however
// recently it served; traffic for a session the store never held leaves
// after a round without any.
func TestEvictedSessionLeavesPlan(t *testing.T) {
	ctl, err := control.New(control.Config{Network: qnet.SURFnet()})
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(2)
	ctl.BindServe(nil, store, obs.NewRegistry())
	register := func(id string) {
		t.Helper()
		if err := store.Register(serve.NewSession(id, profile.IDLambda32k, nil, nil, nil, nil)); err != nil {
			t.Fatal(err)
		}
		ctl.ObserveSession(id, profile.IDLambda32k)
		ctl.ObserveCompute(id, 1<<10, time.Millisecond, serve.CodeOK)
	}
	register("a")
	register("b")
	ctl.ObserveCompute("ghost", 1<<10, time.Millisecond, serve.CodeOK) // never registered
	plan, err := ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if got := budgeted(plan); got != "a,b,ghost" {
		t.Fatalf("budgeted sessions %q before eviction, want a,b,ghost", got)
	}
	ctl.ObserveCompute("a", 1<<10, time.Millisecond, serve.CodeOK)
	register("c") // evicts a, the LRU session
	plan, err = ctl.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if got := budgeted(plan); got != "b,c" {
		t.Errorf("budgeted sessions %q after a's eviction, want b,c", got)
	}
	var snapped []string
	for _, s := range ctl.Telemetry().Snapshot().Sessions {
		snapped = append(snapped, s.ID)
	}
	if got := strings.Join(snapped, ","); got != "b,c" {
		t.Errorf("snapshot sessions %q after a's eviction, want b,c", got)
	}
}

// budgeted lists the sessions a plan holds a rekey budget for, sorted.
func budgeted(p *control.Plan) string {
	return strings.Join(slices.Sorted(maps.Keys(p.RekeyBudget)), ",")
}

func TestAdmitComputeShedsUnfundableRekey(t *testing.T) {
	net := qnet.SURFnet()
	kc := qkd.NewKeyCenter()
	if err := kc.Provision("dry", 0); err != nil {
		t.Fatal(err)
	}
	ctl, err := control.New(control.Config{
		Network: net, KeyCenter: kc, BaseRekeyBytes: 1000, LambdaSet: []float64{32768},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Well inside the budget: admitted even with an empty pool.
	if err := ctl.AdmitCompute("dry", 0, 100); err != nil {
		t.Errorf("in-budget compute denied: %v", err)
	}
	// The block would cross the budget and the pool cannot fund the
	// rotation: shed with the typed denial instead of stranding the
	// client on CodeRekeyRequired.
	if err := ctl.AdmitCompute("dry", 900, 200); !errors.Is(err, serve.ErrKeyExhausted) {
		t.Errorf("unfundable-rekey compute err = %v, want ErrKeyExhausted", err)
	}
	// Same position with a funded pool: admitted (the normal
	// rekey-required flow takes over).
	if err := kc.Deposit("dry", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AdmitCompute("dry", 900, 200); err != nil {
		t.Errorf("fundable-rekey compute denied: %v", err)
	}
}

// TestControlLoopConcurrentWithServing is the -race satellite: a
// controller replanning every 2ms (both from its own loop and from a
// hammering goroutine) concurrent with Setup, Compute and Rekey traffic
// must never deadlock and never expose a zero budget for any session.
func TestControlLoopConcurrentWithServing(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-plane concurrency test")
	}
	network := qnet.SURFnet()
	kc := qkd.NewKeyCenter()
	const clients = 3
	ids := make([]string, clients)
	for i := range ids {
		ids[i] = fmt.Sprintf("race-%d", i)
		if err := kc.Provision(ids[i], 1000); err != nil {
			t.Fatal(err)
		}
		if err := kc.Deposit(ids[i], make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	ctl, err := control.New(control.Config{
		Network:        network,
		KeyCenter:      kc,
		Interval:       2 * time.Millisecond,
		BaseRekeyBytes: 2048, // below one padded block: every compute forces a rekey round
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	defer ctl.Stop()

	srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
		Model:   edge.Model{Weights: []float64{1}},
		Workers: 2,
		Control: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stop atomic.Bool
	var zeroBudget atomic.Int64
	var watcher sync.WaitGroup
	watcher.Add(2)
	go func() { // budget watcher: re-planning must never drop a budget to 0
		defer watcher.Done()
		for !stop.Load() {
			for _, id := range ids {
				if ctl.RekeyBudget(id) <= 0 {
					zeroBudget.Add(1)
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	go func() { // replan hammer, concurrent with the Start loop
		defer watcher.Done()
		for !stop.Load() {
			if _, err := ctl.Replan(); err != nil {
				t.Errorf("replan: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := edge.DialQKDWith(srv.Addr(), ids[i], kc, int64(31+i), edge.DialConfig{})
			if err != nil {
				t.Errorf("dial %s: %v", ids[i], err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, err := c.Compute(uint32(j), []float64{0.25, 0.5}); err != nil {
					t.Errorf("%s compute %d: %v", ids[i], j, err)
					return
				}
				if j%4 == 3 {
					if err := c.Rekey(); err != nil {
						t.Errorf("%s rekey: %v", ids[i], err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	watcher.Wait()
	if n := zeroBudget.Load(); n != 0 {
		t.Errorf("observed a zero rekey budget %d times during re-planning", n)
	}
	if ctl.Plan().Seq < 2 {
		t.Errorf("controller barely replanned (seq %d) during the run", ctl.Plan().Seq)
	}
}
