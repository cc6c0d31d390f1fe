package control_test

import (
	"errors"
	"math"
	"testing"

	"quhe/internal/control"
	"quhe/internal/mathutil"
	"quhe/internal/qnet"
)

// livePhiMin is control's phiMin constant (17a).
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

// TestLiveStage1Pinned pins the plan the running system acts on to the
// paper's Algorithm 1 optimum: on each network the controller's allocation
// (qnet.Stage1.Solve at the controller's φ_min) holds ln U_qkd and φ as
// core.SolveStage1's barrier method reported them when the planner still
// ran a solver of its own, so the switch to the one solver is held to the
// optimum both then reached.
func TestLiveStage1Pinned(t *testing.T) {
	nets := []struct {
		name string
		net  *qnet.Network
		logU float64
		phi  []float64
	}{
		{"surfnet", qnet.SURFnet(), -4.5846133688923016,
			[]float64{2.0983836851595528, 1.106015826829562, 1.1034308305121912, 1.8722541243210524, 0.6864090237441764, 0.5781156046309195}},
		// Dividing every capacity by 10 divides the optimal rates by 10.
		{"surfnet-beta/10", scaledSURFnet(t, 0.1), -18.400123926856576,
			[]float64{0.20983836853042617, 0.11060158269403224, 0.11034308306232153, 0.18722541244350477, 0.06864090238357665, 0.05781156047238336}},
		{"star-2", star(t, 2, 50), 0.13162352182282122, []float64{2.508653848678093, 2.508653848678093}},
		{"star-8", star(t, 8, 50), -10.56386080166784, mathutil.Fill(8, 0.6271634662426099)},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			ctl, err := control.New(control.Config{Network: tc.net})
			if err != nil {
				t.Fatal(err)
			}
			plan := ctl.Plan()
			dU := math.Abs(plan.LogUtility - tc.logU)
			if dU > 1e-9 {
				t.Errorf("plan ln U_qkd = %.12f, pinned barrier optimum %.12f", plan.LogUtility, tc.logU)
			}
			worst := 0.0
			for r, want := range tc.phi {
				rel := math.Abs(plan.Phi[r]-want) / want
				if rel > 1e-5 {
					t.Errorf("φ[%d] = %.9f, pinned %.9f", r+1, plan.Phi[r], want)
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
