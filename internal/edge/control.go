package edge

import (
	"strings"
	"time"

	"quhe/internal/obs"
	"quhe/internal/serve"
)

// Controller is the serving-side hook for a control plane
// (internal/control implements it). The server consults it on every Setup
// and compute admission decision, reads per-session rekey byte budgets
// from it in place of the static ServerConfig.RekeyBytes constant, and
// publishes per-block telemetry back into it. A nil
// ServerConfig.Control disables all of this and preserves the static
// pre-control behavior exactly.
//
// Implementations must be safe for concurrent use from the serving hot
// path and must not call back into the Server.
type Controller interface {
	// BindServe attaches the server's session store, which the control
	// plane reads to keep a session's telemetry as long as the store
	// keeps the session, and the server's metrics registry, which carries
	// the control plane's series on the same /metrics page as the
	// server's. Called once from NewServer before any traffic.
	BindServe(store *serve.Store, reg *obs.Registry)
	// NegotiateProfile resolves the security profile a new session should
	// run: requested "" lets the active plan steer (the per-route λ
	// choice); a concrete ID is granted, downgraded to the plan's profile
	// for the session's route when it demands a higher λ than planned, or
	// denied with an error wrapping serve.ErrProfileDenied when unknown.
	NegotiateProfile(sessionID, requested string) (string, error)
	// AdmitSession decides whether a new session may register; resident
	// is the current resident-session count. Return an error wrapping
	// serve.ErrAdmissionDenied to shed the Setup.
	AdmitSession(sessionID string, resident int) error
	// ObserveSession records a successful registration and the profile it
	// landed on, so per-profile telemetry and profile-aware budgets see
	// the session before its first block.
	ObserveSession(sessionID, profileID string)
	// AdmitCompute decides whether pendingBytes of new work may be served
	// for a session that has used usedBytes of its current key budget.
	// Implementations should count denied bytes as demand: a fully shed
	// session must still register load with the demand predictor.
	AdmitCompute(sessionID string, usedBytes, pendingBytes int64) error
	// RekeyBudget returns the session's per-key byte budget (0 = no
	// budget). It is the server's only budget source while a control
	// plane is attached: ServerConfig.RekeyBytes is not consulted.
	RekeyBudget(sessionID string) int64
	// ObserveCompute records one block's outcome: masked payload bytes,
	// evaluation latency and the resulting code.
	ObserveCompute(sessionID string, bytes int64, latency time.Duration, code serve.Code)
	// ObserveRotations records the hoisted Galois rotation count of a
	// served matvec block, alongside its ObserveCompute, so the rotation
	// intensity can feed the planner's delay models.
	ObserveRotations(sessionID string, n int)
	// PlanJSON returns the live plan as a JSON-marshalable value, what
	// the debug plane renders at /debug/plan.
	PlanJSON() any
	// LedgerJSON returns the key-flow ledger's snapshot of the control
	// plane's key centre (nil for none), what the debug plane renders at
	// /debug/keyledger. The server never sees QKD withdrawals itself.
	LedgerJSON() any
}

// controlDetail extracts the human-readable detail of a typed control
// error for the wire's Err field, dropping the sentinel prefix the Code
// already carries (clients rebuild the sentinel from the code).
func controlDetail(err error) string {
	msg := err.Error()
	if sentinel := serve.CodeOf(err).Err(); sentinel != nil {
		msg = strings.TrimPrefix(msg, sentinel.Error()+": ")
	}
	return msg
}
