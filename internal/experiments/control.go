package experiments

import (
	"errors"
	"fmt"
	"time"

	"quhe/internal/control"
	"quhe/internal/edge"
	"quhe/internal/he/profile"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// The closed-loop experiment's workload. Two clients each compute 16
// blocks, one round every controlPace (not counted as serving latency,
// it gives the periodic controller a realistic duty cycle), against a
// two-worker server. Each client starts with five rekey withdrawals of
// QKD key (the initial one plus four rekeys), and a per-key budget of
// 8192 bytes at λ_ref forces a rekey every second padded block, so the
// static scenario burns through its stock mid-run.
const (
	controlClients        = 2
	controlBlocks         = 16
	controlWorkers        = 2
	controlStockBytes     = 5 * edge.RekeyWithdrawBytes
	controlBaseRekeyBytes = 8192
	controlInterval       = 15 * time.Millisecond // the controller's replanning period
	controlPace           = 2 * time.Millisecond
)

// scarceKeyNetwork is SURFnet with every link's entanglement rate scaled
// down 10x: the topology the paper evaluates, in the key-scarce regime the
// experiment exists to show. Pinning scarcity in the network rather than
// in the workload's timing keeps the controller's budget stretch off the
// demand-threshold knife edge however fast the serving plane drains blocks.
func scarceKeyNetwork() (*qnet.Network, error) {
	ref := qnet.SURFnet()
	links := make([]qnet.Link, ref.NumLinks())
	for l := range links {
		links[l] = ref.Link(l)
		links[l].Beta /= 10
	}
	routes := make([]qnet.Route, ref.NumRoutes())
	for r := range routes {
		routes[r] = ref.Route(r)
	}
	return qnet.New(links, routes)
}

// ControlScenario reports one serving run of the experiment.
type ControlScenario struct {
	Name string `json:"name"`
	// Served counts completed blocks; Stranded the blocks lost to
	// key exhaustion (rekey demanded but the pool cannot fund it — the
	// static scenario's failure mode); Errors everything else.
	Served   int64 `json:"served"`
	Stranded int64 `json:"stranded"`
	Errors   int64 `json:"errors"`
	// Rekeys counts completed rotations; KeyBytesLeft the stock remaining
	// across every client pool at the end of the run.
	Rekeys       int64 `json:"rekeys"`
	KeyBytesLeft int   `json:"key_bytes_left"`
	// Lambda / MSL are the security level the run's sessions were served
	// at (their registered profile's); RekeyBudget is the budget the run
	// ended on (the static scenario's is the constant at λ_ref).
	Lambda      float64 `json:"lambda"`
	MSL         float64 `json:"msl"`
	RekeyBudget int64   `json:"rekey_budget"`
	// LatencySumS sums per-block client-observed latency.
	LatencySumS float64 `json:"latency_sum_s"`
	// Utility is the run's utility-cost score: α_msl·f_msl(λ)·served −
	// α_T·Σlatency, the security and delay terms of Eq. (17) accumulated
	// over the run.
	Utility float64 `json:"utility"`
}

// ControlLoopResult compares the static-budget baseline against the
// controller-driven run.
type ControlLoopResult struct {
	Static  ControlScenario `json:"static"`
	Dynamic ControlScenario `json:"dynamic"`
	// UtilityGain is Dynamic.Utility − Static.Utility (positive when the
	// control loop pays off).
	UtilityGain float64 `json:"utility_gain"`
	// PlanSeq is how many plans the controller published during its run.
	PlanSeq uint64 `json:"plan_seq"`
}

// scenarioUtility scores a run with the planner's own utility-cost
// weights.
func scenarioUtility(msl float64, served int64, latencySumS float64) float64 {
	return control.AlphaMSL*msl*float64(served) - control.AlphaT*latencySumS
}

// ControlLoop runs the closed-loop experiment: the same finite-key
// serving workload twice over scarceKeyNetwork — once with the static
// per-key budget constant (admit-until-evicted, the pre-control runtime)
// and once with the control plane re-planning budgets, provisioning and
// admission online — and scores both with the paper's utility-cost terms.
// The static run burns its key stock at the constant rekey cadence and
// strands once the pool is dry; the controller stretches budgets to the
// cadence the key plane sustains and sheds what it cannot fund with typed
// admission denials instead of stalling.
func ControlLoop() (ControlLoopResult, error) {
	var res ControlLoopResult
	network, err := scarceKeyNetwork()
	if err != nil {
		return res, err
	}
	if res.Static, _, err = runControlScenario("static", false, network); err != nil {
		return res, err
	}
	var planSeq uint64
	if res.Dynamic, planSeq, err = runControlScenario("dynamic", true, network); err != nil {
		return res, err
	}
	res.PlanSeq = planSeq
	res.UtilityGain = res.Dynamic.Utility - res.Static.Utility
	return res, nil
}

func runControlScenario(name string, dynamic bool, network *qnet.Network) (ControlScenario, uint64, error) {
	sc := ControlScenario{Name: name}
	kc := qkd.NewKeyCenter()
	ids := make([]string, controlClients)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", name, i)
		if err := kc.Provision(ids[i], 64); err != nil {
			return sc, 0, err
		}
		if err := kc.Deposit(ids[i], make([]byte, controlStockBytes)); err != nil {
			return sc, 0, err
		}
	}

	cfg := edge.ServerConfig{
		Model:   edge.Model{Weights: []float64{0.5}, Bias: []float64{0.1}},
		Workers: controlWorkers,
	}
	var ctl *control.Controller
	if dynamic {
		var err error
		ctl, err = control.New(control.Config{
			Network:        network,
			KeyCenter:      kc,
			Interval:       controlInterval,
			BaseRekeyBytes: controlBaseRekeyBytes,
		})
		if err != nil {
			return sc, 0, err
		}
		ctl.Start()
		defer ctl.Stop()
		cfg.Control = ctl
	} else {
		cfg.RekeyBytes = control.DeriveRekeyBudget(controlBaseRekeyBytes, control.LambdaRef)
	}
	srv, err := edge.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		return sc, 0, err
	}
	defer srv.Close()

	clients := make([]*edge.Client, controlClients)
	for i, id := range ids {
		// Both scenarios pin the default security profile: this
		// experiment isolates the budget/admission loop, so the λ
		// actuation (which would otherwise steer the dynamic run to the
		// plan's higher-λ profile and change its compute cost) is held
		// fixed — experiments.ProfileMix covers the mixed-λ axis.
		c, err := edge.DialQKDWith(srv.Addr(), id, kc, int64(100+i),
			edge.DialConfig{Profile: profile.Default().DefaultID()})
		if err != nil {
			return sc, 0, fmt.Errorf("dial %s: %w", id, err)
		}
		defer c.Close()
		clients[i] = c
	}

	data := []float64{0.25, 0.5}
	for blk := 0; blk < controlBlocks; blk++ {
		if blk > 0 {
			time.Sleep(controlPace)
		}
		for _, c := range clients {
			t0 := time.Now()
			_, err := c.Compute(uint32(blk), data)
			lat := time.Since(t0).Seconds()
			switch {
			case err == nil:
				sc.Served++
				sc.LatencySumS += lat
			case errors.Is(err, serve.ErrRekeyRequired) || errors.Is(err, qkd.ErrInsufficientKey):
				sc.Stranded++
			default:
				sc.Errors++
			}
		}
	}

	for _, id := range ids {
		if st, ok := srv.SessionStats(id); ok {
			sc.Rekeys += st.Rekeys
		}
		if avail, err := kc.Available(id); err == nil {
			sc.KeyBytesLeft += avail
		}
	}
	var planSeq uint64
	if dynamic {
		plan := ctl.Plan()
		planSeq = plan.Seq
		sc.RekeyBudget = plan.DefaultRekeyBudget
		for _, id := range ids {
			if b := plan.RekeyBudget[id]; b > sc.RekeyBudget {
				sc.RekeyBudget = b // report the stretched per-session budget
			}
		}
	} else {
		sc.RekeyBudget = cfg.RekeyBytes
	}
	// Every session of either scenario ran the pinned profile: the run is
	// priced at the λ it was served at, not at a λ the plan would steer
	// new sessions to.
	prof, _ := profile.Default().Get(clients[0].Profile())
	sc.Lambda, sc.MSL = prof.Lambda, prof.MSL()
	sc.Utility = scenarioUtility(sc.MSL, sc.Served, sc.LatencySumS)
	return sc, planSeq, nil
}
