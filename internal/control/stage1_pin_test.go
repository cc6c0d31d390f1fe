package control_test

import (
	"errors"
	"math"
	"testing"

	"quhe/internal/control"
	"quhe/internal/core"
	"quhe/internal/mathutil"
	"quhe/internal/qnet"
)

// livePhiMin is control's phiMin constant (17a), which the pin holds the
// reproduction's solver to.
const livePhiMin = 1e-2

// scaledSURFnet is SURFnet with every link capacity multiplied by scale.
func scaledSURFnet(t *testing.T, scale float64) *qnet.Network {
	t.Helper()
	base := qnet.SURFnet()
	links := make([]qnet.Link, base.NumLinks())
	for l := range links {
		links[l] = base.Link(l)
		links[l].Beta *= scale
	}
	routes := make([]qnet.Route, base.NumRoutes())
	for r := range routes {
		routes[r] = base.Route(r)
	}
	net, err := qnet.New(links, routes)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// star is n routes sharing one link of capacity beta: the most congested
// shape a network can take, every route bounded by the same constraint.
func star(t *testing.T, n int, beta float64) *qnet.Network {
	t.Helper()
	routes := make([]qnet.Route, n)
	for r := range routes {
		routes[r] = qnet.Route{ID: r + 1, LinkIDs: []int{1}}
	}
	net, err := qnet.New([]qnet.Link{{ID: 1, Beta: beta}}, routes)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestLiveStage1MatchesBarrier pins the plan the running system acts on to
// the optimum the reproduction reports: on each network the controller's
// allocation (qnet.Stage1.Solve, projected gradient) agrees with the
// paper's Algorithm 1 (core.SolveStage1, barrier method) on the same
// program at the controller's φ_min.
func TestLiveStage1MatchesBarrier(t *testing.T) {
	nets := []struct {
		name string
		net  *qnet.Network
	}{
		{"surfnet", qnet.SURFnet()},
		{"surfnet-beta/10", scaledSURFnet(t, 0.1)},
		{"star-2", star(t, 2, 50)},
		{"star-8", star(t, 8, 50)},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			ctl, err := control.New(control.Config{Network: tc.net})
			if err != nil {
				t.Fatal(err)
			}
			plan := ctl.Plan()

			cfg := core.PaperConfig(1) // α_qkd = 1: Objective is −ln U_qkd
			cfg.Net = tc.net
			cfg.PhiMin = mathutil.Fill(tc.net.NumRoutes(), livePhiMin)
			ref, err := cfg.SolveStage1(core.Stage1Options{Method: core.Stage1Barrier})
			if err != nil {
				t.Fatal(err)
			}
			dU := math.Abs(plan.LogUtility + ref.Objective)
			if dU > 1e-9 {
				t.Errorf("plan ln U_qkd = %.12f, barrier optimum %.12f", plan.LogUtility, -ref.Objective)
			}
			worst := 0.0
			for r, want := range ref.Phi {
				rel := math.Abs(plan.Phi[r]-want) / want
				if rel > 1e-5 {
					t.Errorf("φ[%d] = %.9f, barrier %.9f", r+1, plan.Phi[r], want)
				}
				worst = math.Max(worst, rel)
			}
			t.Logf("|Δ ln U_qkd| = %.1e (bound 1e-9), worst relative Δφ = %.1e (bound 1e-5)", dU, worst)
		})
	}
}

// TestInfeasiblePhiMinFailsNew: a network that cannot carry the minimum
// rates fails control.New with the program's typed error.
func TestInfeasiblePhiMinFailsNew(t *testing.T) {
	_, err := control.New(control.Config{Network: star(t, 8, 4*livePhiMin)})
	if !errors.Is(err, qnet.ErrStage1Infeasible) {
		t.Fatalf("control.New on an overcommitted link: err = %v, want qnet.ErrStage1Infeasible", err)
	}
}
