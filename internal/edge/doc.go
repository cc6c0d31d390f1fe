// Package edge implements a runnable distributed version of the QuHE
// system model (Fig. 1): a TCP edge server and client nodes executing the
// full pipeline — QKD-derived symmetric keys, client-side masking
// (symmetric encryption), upload, server-side transciphering into CKKS, and
// encrypted inference whose result only the client can decrypt.
//
// # Serving architecture
//
// The server is a thin protocol shell over the multi-tenant serving
// runtime in internal/serve. A request flows
//
//	connection → serve.Store (sharded sessions, LRU-capped)
//	           → serve.Scheduler (bounded queue, ErrOverloaded backpressure)
//	           → serve.PoolSet (per-profile EvalPools, lazily built workers)
//	           → transcipher/ckks core (per-profile context + cipher)
//
// so N sessions cost key material only, while evaluator memory and
// compute parallelism are bounded by the worker pools of the security
// profiles actually in use.
//
// # Security profiles
//
// Every session runs on a security profile (internal/he/profile): one of
// the paper's λ levels actuated as a real CKKS parameter set. The server
// keeps one context, transciphering cipher and evaluator pool per live
// profile, so sessions at different security levels — different ring
// degrees, independently keyed contexts — serve side by side on one
// listener.
//
// Profile negotiation is a v3 feature gated by the hello handshake: the
// server advertises support with a flags bit in its hello ack, and a
// capable client then sends a frameProfile query (session ID + requested
// profile, possibly empty for "let the plan steer") before generating any
// keys. The server — its control plane's per-route λ plan, when one is
// attached — answers with the granted profile: the request itself, the
// plan's choice for an empty request, a *downgrade* to the route's
// planned profile when the request demands a higher λ than the plan
// allows, or a typed serve.CodeProfileDenied for profiles the registry
// does not know. The client builds its context and keys for the granted
// profile and carries it in Setup (an optional trailing field of the v3
// payload); Setup enforces that the declared parameters match the
// profile's.
//
// Downgrade rule: requests at or below the plan pass as asked; requests
// above it are granted the planned profile instead, and Setup re-checks
// the declared profile against the current plan so the advisory query
// cannot be bypassed (a grant the plan moved below mid-dial is denied
// typed; the client renegotiates and redials). Gob (v1/v2) peers and
// pre-profile v3 peers negotiate nothing and are pinned to the default
// profile, whose parameters are exactly the pre-registry runtime's fixed
// set — their wire format and protocol behavior are unchanged. (One
// advisory delta: the modeled-delay reply fields now evaluate the cost
// model at the session profile's paper-scale λ, as the paper intends,
// where they previously used the runnable ring degree.) A client that
// explicitly requests a non-default profile against a peer that cannot
// negotiate fails typed (serve.ErrProfileDenied) rather than silently
// running at the wrong security level.
//
// # Control plane
//
// ServerConfig.Control optionally attaches a closed-loop control plane
// (the Controller interface, implemented by internal/control). With it,
// Setup and compute admission become plan decisions — denials cross the
// wire as serve.CodeAdmissionDenied — per-session rekey byte budgets are
// derived online from the paper's security-level utility U_msl instead of
// the static RekeyBytes constant, and the server publishes per-block
// telemetry (bytes, latency, outcome) back into the plane. A nil Control
// preserves the static admit-until-evicted behavior exactly; see
// internal/control's package comment for the telemetry → plan → actuation
// loop.
//
// # Wire protocol
//
// Three generations share one listen port. The server sniffs the
// generation from a connection's first bytes: protocol v3 opens with the
// frame magic 0xAD 0x51 — a byte pair gob never emits at stream start —
// and everything else is served on the legacy gob path.
//
//   - v1 (seed protocol): gob envelopes, ID 0, Setup/Compute only, one
//     synchronous request per round trip, replies in order. Still
//     accepted — v1 requests run on the shared pool with blocking
//     checkout and are never shed.
//
//   - v2: gob envelopes with nonzero request IDs allowing multiple
//     in-flight requests per connection and out-of-order replies matched
//     by ID; BatchCompute fans a group of blocks out across the worker
//     pool (one buffered reply); Rekey installs fresh QKD-derived key
//     material; replies carry typed serve.Code values next to the
//     human-readable Err detail. Gob matches struct fields by name and
//     ignores unknown fields, which is what keeps v1 and v2 peers
//     interoperable on one decoder.
//
//   - v3: a hand-rolled, length-prefixed binary framing that removes
//     gob's reflection and per-coefficient varint encoding from the hot
//     path. Every frame is
//
//     offset 0   magic    0xAD 0x51
//     offset 2   version  0x03
//     offset 3   type     hello, setup, compute, batch item, ...
//     offset 4   reqID    uint64, little-endian
//     offset 12  length   uint32 payload byte count
//     offset 16  payload
//
//     HE payloads (ciphertexts, keys) travel as raw little-endian uint64
//     coefficient runs via the ckks/ring AppendBinary/DecodeFrom codecs:
//     encode and decode are reflection-free, allocation-free in steady
//     state, and bit-identical to the gob representation. A v3 connection
//     opens with a client hello frame and a server ack; a client dialing
//     an older server (ProtoAuto) detects the dead hello and redials on
//     the gob path.
//
// Whatever the generation, Setup and Rekey end in the same two handlers,
// and those are where a transciphering key is installed: the uploaded
// key ciphertexts are validated against the session profile's context —
// top level, one limb of N coefficients per level, every residue below
// its prime; anything else is refused with serve.CodeBadRequest before a
// lazy-reduction transform can see it, and a refused Rekey leaves the
// live key and epoch untouched — and converted in place to the
// evaluation form the keystream kernel reads
// (transcipher.Cipher.InstallKey). The conversion costs 2·KeyLen
// forward transforms per limb once per key generation instead of once
// per block; serve.Session holds only the installed form, swapped
// together with nonce and epoch under its lock.
//
// The hello pair doubles as a feature handshake: a client may carry a
// flags byte in its hello payload requesting per-frame CRC32C trailers
// (DialConfig.Checksum), which the ack confirms when the server opted in
// (ServerConfig.FrameChecksums). Once negotiated, every subsequent frame
// in both directions carries a 4-byte Castagnoli checksum over header and
// payload, excluded from the header's length field; a mismatch fails with
// the typed ErrFrameChecksum instead of a garbage decode. Empty hello
// payloads — every pre-checksum peer — negotiate nothing and stay
// bit-compatible.
//
// v3 BatchCompute is streaming: the server frames and flushes each
// block's reply the moment its worker finishes (frameBatchItem, out of
// order) and closes the batch with a frameBatchDone trailer carrying the
// aggregate modeled costs, so giant batches never buffer whole replies.
// A per-connection write mutex interleaves concurrent senders at frame
// granularity, keeping one batch from starving pipelined requests on the
// same connection. Item frames are windowed (ServerConfig.BatchWindow): a
// window token is held from an item's submission until its frame reaches
// the socket, and eval workers only hand finished items to a per-batch
// writer goroutine, so a slow client reading a batch stalls its own
// window — never an eval-pool worker.
//
// # Pooled buffers and ownership
//
// Frames are built in and read into sync.Pool buffers. The rule: a
// decoded value that aliases a pooled buffer is valid only until the next
// frame touches that buffer, so everything the payload decoders return —
// strings, nonces, masked slices, coefficients — is copied out, and
// ciphertexts or keys destined for retention (session key material,
// results handed to callers) are decoded into fresh storage. Symmetric
// rule on the ckks side: Ciphertext.DecodeFrom reuses its receiver's
// coefficient storage, so a caller decoding into a pooled receiver must
// not retain the result past the receiver's reuse — see the wire
// conventions in internal/he/ckks/wire.go.
//
// Transmission and computation delays are modeled (reported in replies
// using the paper's cost formulas) rather than slept, so tests and
// examples run fast.
//
// # Observability and the debug plane
//
// The server instruments its full serving path against internal/obs: a
// lock-cheap metrics registry (wire frame/byte counters per direction,
// per-stage latency histograms quhe_stage_seconds{stage=decode|
// queue_wait|eval|encode|write}, per-profile eval latency and pool
// gauges, compute outcomes by code, scheduler queue depth/sheds, session
// and rekey counters, NTT inline-degradation and QKD flow counters via
// the control plane) plus a per-block tracer on the v3 compute path —
// every block's stage spans, ring-buffered per session, dumpable as
// chrome://tracing JSON. Instrumentation is on by default and costs
// under ~2% of the hot path (BenchmarkObsOverhead pins this in
// BENCH_obs.json); ServerConfig.DisableObs turns the substrate off
// entirely, and ServerConfig.Obs shares one registry between the server
// and a control plane so a single scrape shows the whole loop.
//
// Tracing is distributed and causal. A client armed with
// DialConfig.Tracer mints a per-block trace context (trace ID, root
// span, sampled bit — obs.TraceContext), records its own spans
// (dial/handshake/keygen/setup on dial; mask/submit/wait per sampled
// compute; backoff/reconnect/resume/replay on recovery; rekey and
// retry_backoff as standalone events) under Proc "client", and — when
// the v3 hello negotiated the trace flag — sends the 16-byte context in
// the compute frame. The server re-parents its stage spans under that
// context, so the two halves merge into one trace ID in a combined
// chrome dump. DialConfig.TraceSample bounds the per-block cost:
// lifecycle spans are always recorded (rare, each explains a latency
// cliff), per-compute spans and wire contexts follow the seeded
// sampling decision. A recovery pass adopts the trace identity of the
// oldest in-flight compute, so an outage's reconnect/resume/replay
// spans land inside the trace of the block they delayed — the
// continuity the chaos suite pins across a mid-flight transport kill.
// Eval-pool workers additionally run under a quhe_profile pprof label,
// splitting CPU profiles by security profile.
//
// The metrics become reachable only when ServerConfig.DebugAddr binds
// the HTTP debug plane (obs.ServeDebug): /metrics in the Prometheus
// text format, /debug/pprof/*, /debug/trace (filterable by ?session=
// and ?limit=, 400 on malformed parameters), /debug/slo (availability
// and per-profile latency attainment with multi-window burn rates),
// /debug/keyledger (per-cause QKD withdrawal attribution when the
// deployment wires ServerConfig.KeyLedgerJSON), and /debug/plan
// rendering the controller's live plan when the attached Controller
// implements PlanJSON. Security posture: the plane is off unless
// configured, and it serves operational internals — latency profiles,
// session counts, live pprof — without authentication, so bind it to
// loopback (or a trusted scrape network) and never to the serving
// address.
//
// # Failure handling
//
// Every failure a caller can see is typed (serve.Code on the wire,
// errors.Is-able sentinels in Go), and each code carries a contract: is a
// retry worth anything, what should the client do, and what the failure
// looks like in a client trace dump (the "traced as" column; a sampled
// block's wait span always closes with the outcome, so untraced-as rows
// just end there). The matrix — the client's automatic behavior is what
// Client does on its own when DialConfig.Reconnect and the unified retry
// policy are armed:
//
//	code (serve.*)        retryable?             traced as               client action
//	--------------------  ---------------------  ----------------------  ------------------------------------------
//	CodeOverloaded        yes, immediately       retry_backoff event     back off briefly and resend; the queue was
//	                                                                     full at that instant (load, not state)
//	CodeRekeyRequired     yes, after rekey       rekey event +           RekeyIfEpoch(epoch) then resend — automatic
//	                                             retry_backoff event     inside Compute/ComputeBatch, budget-capped
//	                                                                     (DialConfig.RetryBudget), jittered
//	CodeKeyExhausted      yes, after retry-after retry_backoff event     serve.RetryAfter(err) gives the wait the
//	                                                                     server derived from the QKD provisioning
//	                                                                     rate; degradation, not failure — edgeload
//	                                                                     counts these as shed_key_exhausted
//	CodeAdmissionDenied   no (until replan)      wait span closes        the control plane's standing decision;
//	                                                                     resending sooner than the next plan is noise
//	CodeProfileDenied     no                     wait span closes        renegotiate the profile (redial); never run
//	                                                                     at a different λ than granted
//	CodeDraining          no (this server)       wait span closes        dial another server; resume attempts are
//	                                                                     also turned away while draining
//	CodeResumeRejected    no                     recovery trace ends     the detached session is gone (window
//	                                             (reconnect, failed      expired, epoch/profile drift, bad proof);
//	                                             resume)                 full redial — new Setup, new key ceremony
//	CodeUnknownSession    no                     wait span closes        session evicted or never registered: redial
//	CodeConnClosed        via reconnect          recovery trace —        with Reconnect armed the client redials
//	                                             backoff/reconnect/      (capped exponential backoff + jitter),
//	                                             resume/replay spans     resumes the session (zero keygens, zero QKD
//	                                             under the stalled       withdrawals) and replays in-flight Computes;
//	                                             block's trace ID        in-flight Setup/Rekey/Batch fail typed —
//	                                                                     replaying a rekey could double-bump the
//	                                                                     epoch
//	CodeDeadline          caller's choice        wait span closes at     the request was abandoned after
//	                                             the timeout             DialConfig.RequestTimeout or ctx expiry; a
//	                                                                     late reply is dropped, so a resend is safe
//	                                                                     but the block may have been served
//	CodeBadRequest,       no                     wait span closes        fix the request; these are programming or
//	CodeParamMismatch,                                                   negotiation errors, not transients
//	CodeOversized,
//	CodeWireFormat
//	CodeInternal          maybe once             wait span closes        server-side evaluation failure; one resend
//	                                                                     distinguishes a transient from a real bug
//
// Server-side hardening: ServerConfig.IdleTimeout bounds how long a
// connection may sit idle (a client waiting on its own in-flight replies is
// not idle), ServerConfig.ResumeWindow lets a session outlive its
// connection for resume (guarded by a challenge–MAC possession proof over
// the QKD-derived resume credential, which rotates on rekey), and
// Server.Drain winds down gracefully — new work turned away typed, in-
// flight blocks finished, connections closed as they go quiet. The chaos
// suite (chaos_test.go + internal/faultnet) pins the whole contract under
// seeded byte-level faults: typed errors, no hangs, no wrong plaintexts,
// and resumes that cost zero key material (BENCH_faults.json).
package edge
