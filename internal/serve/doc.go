// Package serve is the multi-tenant serving runtime of the QuHE edge
// server: the layer between the wire protocol (internal/edge) and the CKKS
// core (internal/he/ckks, internal/transcipher) that turns fast single-op
// primitives into fast aggregate throughput under many concurrent
// QKD-secured clients (the system model of Fig. 1 at serving scale).
//
// The runtime decomposes into three pieces a request flows through:
//
//	connection → Store (session table) → Scheduler (bounded queue)
//	           → EvalPool (per-profile evaluators) → transcipher/ckks core
//
// Store is one session table — one lock, one map, one LRU list — with
// exact LRU eviction under a configurable session cap, and per-session
// usage counters. A session is resident from its registration until it is
// evicted or removed; the edge server removes it, by identity, when the
// connection that registered it ends. Registering N sessions costs key material only — not
// evaluators — so memory grows with sessions, compute state with workers.
// Each Session carries the security profile it registered on, and the
// live session cap is resizable (SetMaxSessions) so a control plane can
// actuate its admission capacity instead of only advising it.
//
// EvalPool owns a fixed number of Workers, each pairing a *ckks.Evaluator
// (whose scratch buffers make it single-goroutine) with optional
// caller-attached per-worker scratch (the edge server attaches
// *transcipher.Scratch). Workers are built lazily on first checkout, and
// the edge server keeps one EvalPool per security profile runtime, so
// compute parallelism — and evaluator memory — is bounded by pool size ×
// live profiles, never by the session count, and profiles without
// traffic cost nothing.
//
// Scheduler fans jobs out across the pools through one bounded queue:
// SubmitTo targets a profile's pool, and a pool holds a share of the
// queue from its first submission on. When the queue is at its live
// depth bound, SubmitTo fails fast with ErrOverloaded instead of
// buffering without limit: explicit backpressure the protocol layer maps
// onto typed replies so clients can shed or retry. The live
// bound is resizable within the built capacity (Resize) — the control
// plane applies its plan's queue high-water to it every replan.
//
// Failures are identified by Code values that travel on the wire next to
// a human-readable detail string; each code maps to a sentinel error
// (ErrUnknownSession, ErrOverloaded, ...) so both server internals and
// remote clients can branch with errors.Is. CodeOverloaded is the
// queue's own fail-fast signal; CodeAdmissionDenied is its policy
// sibling, raised by the control plane (internal/control) when a plan —
// not the queue — refuses the work.
//
// The Scheduler and EvalPool also expose cheap gauges (QueueDepth,
// Capacity, InUse) that the control plane and the edge server's
// registry read; a refusal is counted once, by the edge server, as
// quhe_serve_shed_total{reason="queue_full"}. Each drain goroutine takes
// its pool's quhe_profile pprof label once, when it starts, so CPU and
// goroutine profiles split eval time by security profile at no cost per
// job.
//
// Sessions tie the serving plane to the key plane: each Session tracks a
// transciphering key epoch and the bytes processed under the current key,
// supporting QKD-backed rekeying (fresh qkd.KeyCenter withdrawals) after a
// configurable byte budget — see the Rekey flow in internal/edge.
package serve
