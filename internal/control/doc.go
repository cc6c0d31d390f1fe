// Package control is the closed-loop control plane of the QuHE serving
// stack: it connects the live serving runtime (internal/serve,
// internal/edge, internal/qkd) to the paper's utility-cost optimization
// program (internal/qnet, and internal/costmodel for f_msl only), so the
// resource knobs the runtime used to hard-code — the per-key rekey byte
// budget, the QKD provisioning rates, how much work to admit — are
// re-derived online from telemetry instead.
//
// # The loop: telemetry → plan → actuation
//
// Sense. Telemetry is the lock-cheap registry the serving plane publishes
// into. The edge server pushes one observation per served or shed block
// (per-session demand bytes, block and rotation counts and a latency
// histogram: a sync.Map load plus a few atomics on the hot path); the
// serve.Store is bound once at server construction, so a session's
// telemetry lives exactly as long as the store keeps the session; the
// qkd.KeyCenter contributes per-client key stock and
// provisioned rates (PoolStats). Telemetry.Snapshot carries exactly what
// Replan reads: per-session demand rates derived from byte deltas between
// snapshots, served blocks and rotations, and per-profile served blocks
// with the merged p99 latency.
//
// Plan. Controller.Replan re-solves the paper's program over the snapshot
// and publishes an immutable Plan through an atomic pointer:
//
//   - Plan.Phi / Plan.Werner — the Stage-1 entanglement-rate allocation.
//     The program (P2: −ln U_qkd of Eq. 6 under 17a/19a/20c, and its
//     convex log-rate form P3) and its one solver, the paper's barrier
//     method (Algorithm 1), live in internal/qnet/stage1.go. The program's
//     inputs — the network and φ_min = 1e-2 — are fixed at New, and no
//     telemetry enters it, so New calls qnet.Stage1.Solve once (the entry
//     point core.SolveStage1 reaches) and every plan publishes that
//     solution; TestLiveStage1Pinned holds it to the barrier optimum.
//     Werner parameters are the capacity-saturating point w* of Eq. (18).
//   - Plan.RouteLambda / Plan.RouteProfile — the CKKS degree chosen from
//     the discrete set (17d) for every route at once, by the paper's
//     Stage 2 (Eq. 22, qnet.Stage2.Maximize — Algorithm 2, the solver
//     core.SolveStage2 runs) over a route × profile table: Σ_r
//     α_msl·f_msl(λ_r) (Eqs. 9, 30; every ς_n is 1) less α_T times the
//     largest route delay T_cmp (Eq. 13). At idle every route runs the
//     highest level; under load only the routes that set the max step
//     down. A route's T_cmp is the registry's price of its predicted
//     demand (profile.ServeDelaySec, the number every reply reports per
//     block in ModeledCmpDelay), never below the profile's measured p99;
//     a session's route is the FNV-1a hash of its ID modulo the route
//     count. New refuses a LambdaSet λ no registered profile runs. This
//     is the only λ choice, and NegotiateProfile steers every new
//     session on the route to its planned profile.
//   - Plan.RekeyBudget / Plan.DefaultRekeyBudget — rekey byte budgets at
//     the λ each session actually runs, via DeriveRekeyBudget (budget
//     scales with f_msl(λ), Eq. 30, relative to λ_ref = 2^15), stretched
//     per session where the route's secret-key rate φ_n·F_skf(̟_n) (Eq. 4)
//     cannot fund that rekey cadence. A session registered since the last
//     replan is budgeted from its registered profile; the default — for a
//     session whose profile is unknown — is the budget at the lowest
//     planned RouteLambda.
//   - Plan.AdmitCapacity — the session count whose next rotations the
//     current key stock can fund (unbounded without a key centre, where
//     the server's own session cap is the bound).
//
// The program has no queue term, and neither does the plan: the
// scheduler's depth bound is the one edge.ServerConfig.QueueDepth sets,
// with or without a controller.
//
// Actuate. Each replan provisions the key centre from the fresh allocation
// (qkd.KeyCenter.ProvisionFromAllocation, rate_n = φ_n·F_skf(̟_n)) and
// applies its admission capacity to the session store's live cap
// (serve.Store.SetMaxSessions, never above the built ceiling), and the
// edge server reads the plan on its hot paths: profile negotiation
// consults NegotiateProfile (the per-route λ steering, with downgrade of
// requests above the plan), Setup consults AdmitSession (capacity +
// projected key consumption), every served block consults AdmitCompute
// (whether an imminent rekey is fundable from the session's key pool —
// online admission grounded in the finite key supply) and RekeyBudget
// (replacing the static edge.ServerConfig.RekeyBytes constant, derived
// from each session's actual profile λ). Denials are typed:
// serve.ErrAdmissionDenied / serve.CodeAdmissionDenied for a session past
// the plan's capacity, serve.ErrKeyExhausted / serve.CodeKeyExhausted
// with a retry-after hint for a dry key pool, so clients distinguish a
// policy shed from transient overload — and the denied bytes still feed
// the demand EWMAs (Telemetry.ObserveShed), so a fully shed session keeps
// registering load instead of collapsing to the idle default budget.
//
// Observe. BindServe builds the control plane's instruments on the edge
// server's registry, so every served controller is instrumented: replan
// counts, timings and loop failures (quhe_control_*), plan deltas, and
// with a key centre its stock and flow (quhe_qkd_*, quhe_keyledger_*).
// The instrument set is published atomically, so a Start loop running
// before the server binds is safe; a controller no server binds records
// nothing.
//
// A nil controller on edge.ServerConfig.Control disables the whole loop
// and restores the static pre-control behavior bit-for-bit; the compat
// tests in internal/edge pin that.
package control
