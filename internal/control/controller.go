package control

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/he/profile"
	"quhe/internal/mathutil"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

// The utility-cost weights and bounds of the planner's program. Every
// deployment in the tree runs these values, so they are constants, not
// options.
const (
	// AlphaMSL and AlphaT weight the routes' summed security utility
	// against the largest route delay in the λ choice (Stage 2, Eq. 22):
	// the §VI-A calibrated α_msl (see internal/core) and the paper's delay
	// weight scale.
	AlphaMSL = 5e-2
	AlphaT   = 0.4
	// phiMin is the minimum per-route rate (17a).
	phiMin = 1e-2
	// withdrawBytes is the QKD material one key rotation consumes.
	withdrawBytes = serve.RekeyWithdrawBytes
)

// Config parameterizes a Controller. It holds what the planner solves
// over and nothing about where it reports: the instruments go on the
// registry of the edge server that binds the controller (BindServe).
type Config struct {
	// Network is the QKD topology whose routes the allocation is solved
	// over. Required.
	Network *qnet.Network
	// KeyCenter, when set, is actuated on every replan
	// (ProvisionFromAllocation) and consulted for projected key
	// consumption at admission time.
	KeyCenter *qkd.KeyCenter
	// LambdaSet is the ascending CKKS degree choice set (17d), each a λ
	// some registered security profile runs. Default {2^15, 2^16, 2^17}.
	LambdaSet []float64
	// BaseRekeyBytes is the per-key byte budget at λ = LambdaRef; budgets
	// scale from it via DeriveRekeyBudget. Default 1 MiB.
	BaseRekeyBytes int64
	// Interval is the replanning period of Start. Default 1s.
	Interval time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.LambdaSet) == 0 {
		c.LambdaSet = []float64{32768, 65536, 131072}
	}
	if c.BaseRekeyBytes <= 0 {
		c.BaseRekeyBytes = 1 << 20
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

// routeOf maps a session ID to the 0-based route serving it: the FNV-1a
// hash of the ID modulo the route count. The hash is spelled out because
// hash/fnv's hasher escapes to the heap, and Replan routes every session
// on every call.
func routeOf(sessionID string, routes int) int {
	h := uint32(2166136261)
	for i := 0; i < len(sessionID); i++ {
		h = (h ^ uint32(sessionID[i])) * 16777619
	}
	return int(h % uint32(routes))
}

// Controller closes the loop between serving telemetry and the paper's
// optimization program: it periodically re-solves the utility-cost
// allocation over the live Snapshot and publishes a Plan that the edge
// server's admission and rekey-budget hooks read lock-free. It implements
// the edge server's control-plane interface (edge.Controller).
type Controller struct {
	cfg Config
	tel *Telemetry
	met atomic.Pointer[controlObs] // on the server's registry, from BindServe on
	// stage1 is the rate allocation, P2 over cfg.Network at phiMin solved
	// once by New: the program reads no telemetry, so every plan publishes
	// this one solution, its Phi and W slices shared read-only.
	stage1 qnet.Stage1Solution
	// stage2 is the λ choice, route × candidate: cands are the profiles
	// of cfg.LambdaSet, and the reward table, α_msl·f_msl, is filled by
	// New. Each replan fills the delay table from the route demands it
	// sums into demand, rots and blocks, all guarded by planMu.
	stage2       qnet.Stage2
	cands        []*profile.Profile
	demand       []float64
	rots, blocks []int64

	plan   atomic.Pointer[Plan]
	seq    atomic.Uint64
	planMu sync.Mutex // serializes Replan (snapshot deltas + actuation)

	// storeCeiling is the bound session store's built cap — live resizing
	// never raises the cap above what the server was built with.
	storeCeiling atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
	started  atomic.Bool
}

// New validates the configuration, solves the Stage-1 rate allocation —
// its inputs, the network and φ_min, are fixed here, so it is solved once
// — and builds a Controller with one initial plan already published
// (cold-start telemetry), so admission and budget queries work before the
// first Start tick.
func New(cfg Config) (*Controller, error) {
	if cfg.Network == nil {
		return nil, errors.New("control: nil network")
	}
	cfg = cfg.withDefaults()
	var cands []*profile.Profile
	var reward []float64 // one row for every route: every route's weight ς is 1
	for _, lambda := range cfg.LambdaSet {
		p, ok := profile.Default().ByLambda(lambda)
		if !ok {
			return nil, fmt.Errorf("control: no security profile runs λ = %g of the λ set", lambda)
		}
		cands, reward = append(cands, p), append(reward, AlphaMSL*p.MSL())
	}
	stage1, err := qnet.NewStage1(cfg.Network, mathutil.Fill(cfg.Network.NumRoutes(), phiMin))
	if err != nil {
		return nil, err
	}
	// The rate allocation is the paper's Stage-1 program, solved by the
	// paper's Algorithm 1 (qnet.Stage1.Solve, the call core.SolveStage1
	// makes).
	sol, err := stage1.Solve()
	if err != nil {
		return nil, fmt.Errorf("control: stage-1 solve: %w", err)
	}
	n := cfg.Network.NumRoutes()
	c := &Controller{cfg: cfg, tel: NewTelemetry(), stage1: sol, stop: make(chan struct{}), cands: cands,
		stage2: qnet.Stage2{Reward: make([][]float64, n), Delay: make([][]float64, n), AlphaT: AlphaT},
		demand: make([]float64, n), rots: make([]int64, n), blocks: make([]int64, n)}
	for r := range n {
		c.stage2.Reward[r], c.stage2.Delay[r] = reward, make([]float64, len(cands))
	}
	if _, err := c.Replan(); err != nil {
		return nil, err
	}
	return c, nil
}

// controlObs is the control plane's instrument set on the edge server's
// registry: replan timing and failures, plan-delta counters and
// key-centre series.
type controlObs struct {
	replanSeconds  *obs.Histogram
	replans        *obs.Counter
	replanFailures *obs.Counter
	capacityShifts *obs.Counter
	budgetShifts   *obs.Counter
	routeShifts    *obs.Counter
}

func newControlObs(reg *obs.Registry, kc *qkd.KeyCenter) *controlObs {
	m := &controlObs{
		replanSeconds:  reg.Histogram("quhe_control_replan_seconds", "control-loop replan duration"),
		replans:        reg.Counter("quhe_control_replans_total", "completed replans"),
		replanFailures: reg.Counter("quhe_control_replan_failures_total", "replans of the periodic loop that failed"),
		capacityShifts: reg.Counter("quhe_control_plan_changes_total", "plan deltas by changed field", "field", "admit_capacity"),
		budgetShifts:   reg.Counter("quhe_control_plan_changes_total", "", "field", "rekey_budget"),
		routeShifts:    reg.Counter("quhe_control_plan_changes_total", "", "field", "route_profile"),
	}
	if kc != nil {
		reg.GaugeFunc("quhe_qkd_stock_bytes", "buffered key material across client pools", func() float64 {
			var bytes int
			for _, p := range kc.PoolStats() {
				bytes += p.AvailableBytes
			}
			return float64(bytes)
		})
		reg.CounterFunc("quhe_qkd_deposits_total", "key-material deposits", func() float64 {
			return float64(kc.Counters().Deposits)
		})
		reg.CounterFunc("quhe_qkd_deposited_bytes_total", "key bytes deposited", func() float64 {
			return float64(kc.Counters().DepositedBytes)
		})
		reg.CounterFunc("quhe_qkd_withdrawals_total", "successful key withdrawals", func() float64 {
			return float64(kc.Counters().Withdrawals)
		})
		reg.CounterFunc("quhe_qkd_withdrawn_bytes_total", "key bytes withdrawn", func() float64 {
			return float64(kc.Counters().WithdrawnBytes)
		})
		reg.CounterFunc("quhe_qkd_failed_withdrawals_total", "withdrawals refused (unknown client or dry pool)", func() float64 {
			return float64(kc.Counters().FailedWithdrawals)
		})
		// Key-flow ledger series, by withdrawal cause. The ledger may be
		// attached after the controller is built, so each scrape looks it
		// up; with none attached every series reads 0. The cause domain is
		// fixed at build time, per the obs cardinality rules.
		for _, cause := range qkd.Causes() {
			cause := cause
			reg.CounterFunc("quhe_keyledger_withdrawals_total", "ledgered QKD withdrawals by cause", func() float64 {
				if l := kc.KeyLedger(); l != nil {
					return float64(l.CauseWithdrawals(cause))
				}
				return 0
			}, "cause", cause)
			reg.CounterFunc("quhe_keyledger_bytes_total", "ledgered QKD key bytes by cause", func() float64 {
				if l := kc.KeyLedger(); l != nil {
					return float64(l.CauseBytes(cause))
				}
				return 0
			}, "cause", cause)
		}
	}
	return m
}

// observePlanDelta counts which plan fields moved between consecutive
// replans — a flapping route profile or admission capacity shows up as a
// rate here long before it shows up as client-visible churn.
func (m *controlObs) observePlanDelta(prev, next *Plan) {
	if prev == nil {
		return
	}
	if prev.AdmitCapacity != next.AdmitCapacity {
		m.capacityShifts.Inc()
	}
	if prev.DefaultRekeyBudget != next.DefaultRekeyBudget {
		m.budgetShifts.Inc()
	}
	if !slices.Equal(prev.RouteProfile, next.RouteProfile) {
		m.routeShifts.Inc()
	}
}

// Plan returns the current plan (never nil after New).
func (c *Controller) Plan() *Plan { return c.plan.Load() }

// PlanJSON returns the current plan as a JSON-marshalable value — what
// the edge server's /debug/plan renders.
func (c *Controller) PlanJSON() any { return c.plan.Load() }

// LedgerJSON returns the key centre's key-flow ledger snapshot, nil when
// no ledger is attached — what the edge server's /debug/keyledger
// renders.
func (c *Controller) LedgerJSON() any {
	if kc := c.cfg.KeyCenter; kc != nil {
		if l := kc.KeyLedger(); l != nil {
			return l.Snapshot()
		}
	}
	return nil
}

// Start launches the periodic replanning loop. Idempotent.
func (c *Controller) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				if _, err := c.Replan(); err != nil {
					if m := c.met.Load(); m != nil {
						m.replanFailures.Inc()
					}
				}
			}
		}
	}()
}

// Stop halts the replanning loop and waits for it to exit. Safe to call
// more than once, and without a prior Start.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Replan runs one control iteration: snapshot telemetry, re-solve the
// routes' λ choice over New's rate allocation, derive budgets and
// capacity, actuate the key centre, and publish the new plan atomically. Serialized
// internally; safe to call concurrently with the Start loop and with the
// admission hooks.
func (c *Controller) Replan() (*Plan, error) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	replanStart := time.Now()

	snap := c.tel.Snapshot()
	phi, w := c.stage1.Phi, c.stage1.W
	plan := &Plan{
		Seq:               c.seq.Add(1),
		At:                snap.At,
		Phi:               phi,
		Werner:            w,
		LogUtility:        c.stage1.LogUtility,
		RekeyBudget:       make(map[string]int64, len(snap.Sessions)),
		DemandBytesPerSec: snap.DemandBytesPerSec,
	}
	c.fillDelays(snap)
	s2, err := c.stage2.Maximize()
	if err != nil {
		return nil, fmt.Errorf("control: stage-2 solve: %w", err)
	}
	plan.RouteLambda, plan.RouteProfile = make([]float64, len(s2.Assign)), make([]string, len(s2.Assign))
	for r, j := range s2.Assign {
		plan.RouteLambda[r], plan.RouteProfile[r] = c.cands[j].Lambda, c.cands[j].ID
	}
	// A session the plan knows nothing about is budgeted at the lowest λ
	// any route runs — never at a λ no route runs.
	plan.DefaultRekeyBudget = DeriveRekeyBudget(c.cfg.BaseRekeyBytes, slices.Min(plan.RouteLambda))
	for _, s := range snap.Sessions {
		plan.RekeyBudget[s.ID] = c.sessionBudget(plan, s, phi, w)
	}
	plan.AdmitCapacity = c.admitCapacity()

	// Actuation: provision every route's client with the secret-key rate
	// its allocation sustains (rate_n = φ_n·F_skf(̟_n), Eq. 4), and move
	// the session cap to the admission capacity (never above the built
	// ceiling), so the plan is enforced by the runtime itself, not only
	// advised at admission time.
	if c.cfg.KeyCenter != nil {
		if err := c.cfg.KeyCenter.ProvisionFromAllocation(c.cfg.Network, phi, w); err != nil {
			return nil, fmt.Errorf("control: provision: %w", err)
		}
	}
	if store := c.tel.store.Load(); store != nil {
		if ceiling := int(c.storeCeiling.Load()); ceiling > 0 {
			target := ceiling
			if plan.AdmitCapacity >= 0 && plan.AdmitCapacity < ceiling {
				target = plan.AdmitCapacity
			}
			if target < 1 {
				target = 1 // a zero cap would evict every resident session
			}
			store.SetMaxSessions(target)
		}
	}

	prev := c.plan.Swap(plan)
	if m := c.met.Load(); m != nil {
		m.replans.Inc()
		m.replanSeconds.Observe(time.Since(replanStart).Seconds())
		m.observePlanDelta(prev, plan)
	}
	return plan, nil
}

// measuredDelaySec converts a profile's measured p99 block latency into
// the rate-scaled delay form profile.ServeDelaySec uses (blocks/s ×
// seconds per block), so the two are comparable term for term. Zero when
// the profile has no served blocks yet — the model stands alone cold.
func measuredDelaySec(ps ProfileSnapshot, p *profile.Profile, demandBytesPerSec float64) float64 {
	if ps.Blocks <= 0 || ps.LatencyP99Ms <= 0 {
		return 0
	}
	blocksPerSec := demandBytesPerSec / (8 * float64(p.Slots()))
	return blocksPerSec * ps.LatencyP99Ms / 1e3
}

// fillDelays fills the Stage-2 delay table from a snapshot: route r's
// delay under candidate j is the registry's price of the route's predicted
// demand (profile.ServeDelaySec, the number replies report per block) held
// against the profile's measured p99. The route's observed rotation
// intensity scales the per-block cost, so a matvec-heavy route pays its
// hoisted key-switch work and is stepped down earlier than an affine
// route at the same byte rate.
func (c *Controller) fillDelays(snap Snapshot) {
	clear(c.demand)
	clear(c.rots)
	clear(c.blocks)
	for _, s := range snap.Sessions {
		r := routeOf(s.ID, len(c.demand))
		c.demand[r] += s.BytesPerSec
		c.rots[r] += s.Rotations
		c.blocks[r] += s.Blocks
	}
	for r, row := range c.stage2.Delay {
		rotPerBlock := 0.0
		if c.blocks[r] > 0 && c.rots[r] > 0 {
			rotPerBlock = float64(c.rots[r]) / float64(c.blocks[r])
		}
		for j, p := range c.cands {
			row[j] = math.Max(
				p.ServeDelaySec(c.demand[r], rotPerBlock, profile.RefHz),
				measuredDelaySec(snap.Profiles[p.ID], p, c.demand[r]))
		}
	}
}

// profileBudget is the U_msl-scaled rekey budget at the λ a session
// actually runs (its registered profile), the plan default when the
// profile is unknown.
func (c *Controller) profileBudget(plan *Plan, profileID string) int64 {
	if p, ok := profile.Default().Get(profileID); ok {
		return DeriveRekeyBudget(c.cfg.BaseRekeyBytes, p.Lambda)
	}
	return plan.DefaultRekeyBudget
}

// sessionBudget derives one session's rekey byte budget: profileBudget,
// stretched where the session's demand would imply a rekey cadence its
// route's secret-key rate cannot fund (each rotation draws withdrawBytes
// of pool material).
func (c *Controller) sessionBudget(plan *Plan, s SessionSnapshot, phi, w []float64) int64 {
	budget := c.profileBudget(plan, s.Profile)
	if s.BytesPerSec <= 0 {
		return budget
	}
	route := routeOf(s.ID, len(phi))
	ew, err := c.cfg.Network.EndToEndWerner(route, w)
	if err != nil {
		return budget
	}
	rateBits := phi[route] * qnet.SecretKeyFraction(ew)
	if rateBits <= 0 {
		return budget
	}
	// Sustainable cadence: demand/budget rekeys per second must cost no
	// more than rateBits/8 bytes per second of fresh key material.
	minBudget := int64(math.Ceil(s.BytesPerSec * withdrawBytes * 8 / rateBits))
	if minBudget > budget {
		budget = minBudget
	}
	return budget
}

// admitCapacity targets the session count whose next key rotations the
// current key stock can fund (pools only grow via explicit deposits, so
// no projected replenishment is credited). Without a key centre it is -1,
// unbounded: the server's own session cap is then the only bound. 0
// genuinely admits nothing new.
func (c *Controller) admitCapacity() int {
	if c.cfg.KeyCenter == nil {
		return -1
	}
	bytes := 0
	for _, p := range c.cfg.KeyCenter.PoolStats() {
		bytes += p.AvailableBytes
	}
	return bytes / withdrawBytes
}

// --- edge control-plane hooks ----------------------------------------------

// BindServe captures the store for live session-cap actuation and
// builds the control plane's instruments on the server's registry
// (called by the edge server at construction). Replans from then on are
// counted and timed there, and the key centre's stock and flow read from
// there.
func (c *Controller) BindServe(store *serve.Store, reg *obs.Registry) {
	c.tel.BindServe(store)
	if store != nil {
		c.storeCeiling.Store(int64(store.MaxSessions()))
	}
	c.met.Store(newControlObs(reg, c.cfg.KeyCenter))
}

// NegotiateProfile resolves the security profile a new session should
// run. An empty request is steered to the plan's profile for the
// session's route; a concrete request is granted as asked, downgraded to
// the route's planned profile when it demands a higher λ than the plan
// allows, and denied (typed serve.ErrProfileDenied) when the registry
// does not know it.
func (c *Controller) NegotiateProfile(sessionID, requested string) (string, error) {
	reg := profile.Default()
	planned := reg.DefaultID()
	if p := c.plan.Load(); p != nil {
		if rp := p.ProfileForRoute(routeOf(sessionID, c.cfg.Network.NumRoutes())); rp != "" {
			planned = rp
		}
	}
	if requested == "" {
		return planned, nil
	}
	req, ok := reg.Get(requested)
	if !ok {
		return "", fmt.Errorf("%w: unknown profile %q", serve.ErrProfileDenied, requested)
	}
	if plannedProf, ok := reg.Get(planned); ok && req.Lambda > plannedProf.Lambda {
		// The plan refuses the requested level on this route: downgrade.
		return planned, nil
	}
	return requested, nil
}

// ObserveSession records a successful registration and its profile in the
// telemetry registry, so the session's budget follows its actual λ from
// its first block.
func (c *Controller) ObserveSession(sessionID, profileID string) {
	c.tel.ObserveSession(sessionID, profileID)
}

// AdmitSession decides whether a new session may register. resident is the
// server's current session count. Capacity denials are typed
// serve.ErrAdmissionDenied (CodeAdmissionDenied on the wire); key-pool
// shortfalls are typed serve.ErrKeyExhausted with a retry-after hint
// (CodeKeyExhausted) because they clear on their own as the pool refills.
func (c *Controller) AdmitSession(sessionID string, resident int) error {
	p := c.plan.Load()
	if p == nil {
		return nil
	}
	if p.AdmitCapacity >= 0 && resident >= p.AdmitCapacity {
		return fmt.Errorf("%w: %d sessions at plan capacity %d",
			serve.ErrAdmissionDenied, resident, p.AdmitCapacity)
	}
	if kc := c.cfg.KeyCenter; kc != nil {
		// Projected key consumption: an admitted session must be able to
		// fund its next rotation from its own pool. This denial is typed
		// key exhaustion (not a plain admission denial): it clears on its
		// own as the pool refills, and the retry-after hint derived from
		// the provisioning rate tells the client when.
		if avail, err := kc.Available(sessionID); err == nil && avail < withdrawBytes {
			return serve.NewKeyExhausted(kc.RefillWait(sessionID, withdrawBytes),
				fmt.Sprintf("key pool for %q holds %d of %d bytes the next rekey needs",
					sessionID, avail, withdrawBytes))
		}
	}
	return nil
}

// AdmitCompute decides whether one block of pendingBytes may be
// served for a session that has already used usedBytes of its current
// key's budget. It sheds when serving would demand a key rotation the
// session's depleted QKD pool cannot fund — the case that otherwise
// leaves clients bouncing between CodeRekeyRequired and failed
// withdrawals.
func (c *Controller) AdmitCompute(sessionID string, usedBytes, pendingBytes int64) error {
	p := c.plan.Load()
	if p == nil {
		return nil
	}
	if kc := c.cfg.KeyCenter; kc != nil {
		if budget := c.budgetFor(p, sessionID); budget > 0 && usedBytes+pendingBytes >= budget {
			if avail, err := kc.Available(sessionID); err == nil && avail < withdrawBytes {
				// Denied bytes still count as demand: a fully shed session
				// must keep registering load with the predictor, or its
				// budget collapses to the idle default and it can never
				// recover. Typed key exhaustion with a provisioning-rate
				// retry hint, so the client backs off instead of spinning
				// between CodeRekeyRequired and failed withdrawals.
				c.tel.ObserveShed(sessionID, pendingBytes)
				return serve.NewKeyExhausted(kc.RefillWait(sessionID, withdrawBytes),
					fmt.Sprintf("key budget exhausted and pool for %q holds %d of %d bytes a rekey needs",
						sessionID, avail, withdrawBytes))
			}
		}
	}
	return nil
}

// RekeyBudget returns the per-key byte budget for a session (0 only when
// the controller has no plan, which New precludes).
func (c *Controller) RekeyBudget(sessionID string) int64 {
	p := c.plan.Load()
	if p == nil {
		return 0
	}
	return c.budgetFor(p, sessionID)
}

// budgetFor resolves a session's budget under plan p: its planned entry,
// or — for a session registered since the last replan — the budget of
// the profile it registered on.
func (c *Controller) budgetFor(p *Plan, sessionID string) int64 {
	if b, ok := p.RekeyBudget[sessionID]; ok {
		return b
	}
	return c.profileBudget(p, c.tel.SessionProfile(sessionID))
}

// ObserveCompute publishes one served block into the telemetry registry.
func (c *Controller) ObserveCompute(sessionID string, bytes int64, latency time.Duration, code serve.Code) {
	c.tel.ObserveCompute(sessionID, bytes, latency, code)
}

// ObserveRotations records the hoisted Galois rotations a served matvec
// block carried. The rotation intensity feeds the λ choice: a
// rotation-heavy route pays its key-switch work in the planner's delay
// term.
func (c *Controller) ObserveRotations(sessionID string, n int) {
	c.tel.ObserveRotations(sessionID, n)
}
