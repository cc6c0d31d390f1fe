// Package obs is the stdlib-only observability substrate of the QuHE
// serving stack: a lock-cheap metrics registry (atomic counters, gauges
// and log-linear histograms with mergeable snapshots and exact-rank
// quantiles), distributed per-request span tracing (a 16-byte wire
// TraceContext plus chrome://tracing export that merges client and
// server process lanes into single causal traces), and the opt-in HTTP
// debug plane serving /metrics, /debug/pprof/*, /debug/trace,
// /debug/keyledger and /debug/plan. Every layer publishes into it — the
// serve scheduler, per-profile evaluator pools, the edge wire path, the
// QKD key centre, the ring worker pool and the control plane's
// replanner — and the control loop reads its histogram quantiles back as planning inputs, so
// the paper's utility-cost optimization runs on measured tail latency
// rather than modeled means alone.
//
// # Metric naming conventions
//
// Every metric is prefixed `quhe_` and named `quhe_<subsystem>_<what>`
// with base units in the name: `_seconds` for durations, `_bytes` for
// sizes, `_total` for counters. Gauges carry no suffix. Subsystems in
// use: `serve` (scheduler/store), `eval` (per-profile evaluation),
// `stage` (per-stage serving latency), `wire` (frames and bytes on the
// socket), `qkd` (key-centre stock and flow), `keyledger` (per-cause
// withdrawal attribution), `control` (replanning), `ring` (NTT worker
// pool). Examples:
//
//	quhe_serve_queue_depth                 gauge
//	quhe_serve_queue_capacity              gauge
//	quhe_serve_shed_total{reason="..."}    counter (each refused block once)
//	quhe_serve_compute_total{code="..."}   counter (each computed block once)
//	quhe_eval_seconds{profile="..."}       histogram
//	quhe_stage_seconds{stage="eval"}       histogram
//	quhe_wire_bytes_total{dir="in"}        counter
//	quhe_qkd_stock_bytes                   gauge
//	quhe_keyledger_bytes_total{cause="…"}  counter (cause ∈ qkd.Causes())
//	quhe_control_replan_seconds            histogram
//
// # Label cardinality rules
//
// Labels multiply series; every label value set must be small and
// bounded at build time. Allowed label domains: security profile IDs
// (the registry's fixed set), pipeline stage names, wire direction
// (in/out), shed reason, serve.Code
// strings and withdrawal causes (qkd.Causes(), four values). Session
// IDs, request IDs, block numbers, routes and anything else
// client-controlled are forbidden as label values — per-session data
// belongs in the control plane's telemetry registry or in traces, not in
// metric labels. The registry keeps series forever (Prometheus semantics:
// a counter that disappears looks like a reset), which is only sound
// under this rule.
//
// # Objectives
//
// Objectives are expressions over the series above, not instruments of
// their own: each computed block is counted once. Availability is
//
//	quhe_serve_compute_total{code="ok"} / sum(quhe_serve_compute_total)
//
// and a profile's latency objective at a target t is
//
//	quhe_eval_seconds_bucket{profile="...",le="t"} / quhe_eval_seconds_count{profile="..."}
//
// for any t on the bucket grid (0.25 is one), which counts an eval of
// exactly t as within it, since a bucket's `le` bound is inclusive. A
// request shed because the queue was full never reaches compute: it is
// counted in quhe_serve_shed_total, not in quhe_serve_compute_total, so
// availability is over the blocks the server took on. Over a window,
// take rate() of each series.
//
// # Histograms
//
// All histograms share one fixed log-linear bucket layout (8 linear
// sub-buckets per power-of-two octave, see NumBuckets), which makes
// snapshots mergeable by bucket-wise addition — per-session histograms
// roll up into per-profile and global views, and merging is associative
// and commutative (property-tested). A bucket holds the values in
// (lower, upper], so a value equal to a bound is counted at that `le`,
// as Prometheus reads it. Quantiles are exact-rank: the rank
// ceil(q·n) is exact and the returned value is the containing bucket's
// upper bound (capped at the observed max), at most 12.5% above the true
// order statistic. Observe is wait-free: one atomic increment and two
// CAS adds, no locks, no allocation.
//
// # Span lifecycle and buffer ownership
//
// A BlockTrace is built by the serving path while the block is in
// flight (stage timestamps stamped inline), then handed to
// Tracer.Record exactly once, after the reply frame reached the socket.
// Record takes ownership of the Spans slice: the caller must not reuse
// or mutate it afterwards. Traces land in per-session ring buffers that
// start at eight slots and double up to the per-session bound, then keep
// the newest traces; Dump and DumpFiltered copy the ring
// contents out but share the recorded Spans slices, so dumped traces
// are read-only. The session ring count is capped exactly, as
// serve.Store caps sessions: a trace for a new session at the cap evicts
// the ring of the least recently recorded session, so the tracer never
// refuses a trace and never grows without bound.
//
// # Debug plane security posture
//
// The debug plane is off unless explicitly configured
// (edge.ServerConfig.DebugAddr) and should bind loopback
// ("127.0.0.1:...") unless the scrape network is trusted: it exposes
// operational internals — latency distributions, session counts, the
// controller's live plan, pprof profiling — without authentication.
package obs
