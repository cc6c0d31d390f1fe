package control

import (
	"time"

	"quhe/internal/costmodel"
)

// LambdaRef is the reference CKKS degree (2^15, the smallest of the paper's
// λ set): DeriveRekeyBudget scales budgets relative to the security level
// f_msl(LambdaRef).
const LambdaRef = 32768

// Plan is one output of the control loop: the resource allocation the
// admission controller and the edge server actuate until the next replan.
// Fields map back to the paper's program P1 (Eq. 17): Phi/Werner are the
// Stage-1 key-rate block (Eqs. 18–20), RouteLambda the Stage-2
// security-level choice (17d): U_msl (Eq. 9) summed over the routes
// against the largest of the profile registry's prices of the routes'
// demands (Eq. 22), and the rekey budgets tie the per-key byte exposure to
// f_msl (Eq. 30).
type Plan struct {
	// Seq increments per replan; At stamps when the plan was computed.
	Seq uint64
	At  time.Time

	// RouteLambda is the λ choice (17d) solved over all routes at once:
	// Σ_r α_msl·f_msl(λ_r) against α_T times the largest route delay, so
	// only a route that sets that max steps down. RouteProfile is the
	// security-profile ID actuating it: new sessions on a route are
	// steered to RouteProfile[route] at negotiation time. Both are
	// indexed by the 0-based route index.
	RouteLambda  []float64
	RouteProfile []string

	// Phi is the per-route entanglement-rate allocation and Werner the
	// capacity-saturating link Werner parameters of Eq. (18); LogUtility
	// is ln U_qkd (Eq. 6) at that point.
	Phi        []float64
	Werner     []float64
	LogUtility float64

	// RekeyBudget holds the per-key byte budgets of the sessions the plan
	// was solved over, each at its own profile's λ (stretched where the
	// route's secret-key rate cannot sustain that cadence). A session
	// registered since is budgeted from its profile by
	// Controller.RekeyBudget; DefaultRekeyBudget — the budget at the lowest
	// RouteLambda — covers a session whose profile is unknown.
	DefaultRekeyBudget int64
	RekeyBudget        map[string]int64

	// AdmitCapacity is the target number of concurrent sessions the key
	// plane can fund (negative = unbounded; 0 admits nothing new, e.g.
	// every pool dry). AdmitSession refuses a Setup at or past it, and
	// nothing else enforces it: resident sessions are never evicted for it.
	AdmitCapacity int

	// DemandBytesPerSec echoes the telemetry demand the plan was solved
	// against.
	DemandBytesPerSec float64
}

// ProfileForRoute returns the profile the plan steers a route's new
// sessions to ("" when the plan carries no per-route actuation).
func (p *Plan) ProfileForRoute(route int) string {
	if route < 0 || route >= len(p.RouteProfile) {
		return ""
	}
	return p.RouteProfile[route]
}

// DeriveRekeyBudget maps the plan's security level to a per-key byte
// budget:
//
//	budget(λ) = base · f_msl(λ) / f_msl(LambdaRef)
//
// with f_msl from Eq. (30). The budget paces QKD spend: it is how many
// bytes a session masks per key before it withdraws fresh key, scaled
// with the HE security level the plan buys. At λ = 2^15 the budget is
// exactly base, and it grows monotonically in f_msl(λ) — the property the
// control tests assert. It does not bound the key's exposure: 44 known
// slots recover a transciphering key (see package transcipher's data
// limit), far below any budget. Budgets never derive to zero: any
// positive base yields a budget of at least one byte.
func DeriveRekeyBudget(base int64, lambda float64) int64 {
	if base <= 0 {
		return 0
	}
	scale := costmodel.MinSecurityLevel(lambda) / costmodel.MinSecurityLevel(LambdaRef)
	if scale <= 0 {
		return 1
	}
	b := int64(float64(base) * scale)
	if b < 1 {
		b = 1
	}
	return b
}
