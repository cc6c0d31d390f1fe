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
// exact LRU eviction under the session cap it is built with, and
// per-session usage counters. A session is resident from its registration
// until it is evicted or removed; the edge server removes it, by identity,
// when the connection that registered it ends. Registering N sessions
// costs key material only — not evaluators — so memory grows with
// sessions, compute state with workers. Each Session carries the security
// profile it registered on. The cap never moves: a control plane's
// admission capacity is enforced where sessions arrive, at Setup, never
// by evicting a resident session.
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
// queue from its first submission on. The depth the scheduler is built
// with is its one bound: when a pool's share of it is full, SubmitTo
// fails fast with ErrOverloaded instead of buffering without limit —
// explicit backpressure the protocol layer maps onto typed replies so
// clients can shed or retry.
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
// Capacity, InUse) that the edge server's registry reads; a refusal is
// counted once, by the edge server, as
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
