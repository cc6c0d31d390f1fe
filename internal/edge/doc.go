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
//	connection → serve.Store (one session table, LRU-capped)
//	           → serve.Scheduler (bounded queue, ErrOverloaded backpressure)
//	           → the session profile's runtime: its serve.EvalPool (lazily
//	             built workers) and the transcipher/ckks core (context + cipher)
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
// Profile negotiation is the first thing a session does: before
// generating any keys or drawing QKD key the client sends a frameProfile
// query (session ID + requested profile, possibly empty for "let the plan
// steer"); an empty ID is refused there as a bad request, a live one as a
// duplicate. The server — its control plane's per-route λ plan, when one
// is attached — answers with the granted profile: the request itself, the
// plan's choice (or the registry default) for an empty request, a
// *downgrade* to the route's planned profile when the request demands a
// higher λ than the plan allows, or a typed serve.CodeProfileDenied for
// profiles the registry does not know. The connection keeps the grant
// (session ID and profile), and Setup registers exactly it: the client
// builds its keys for the granted profile, and Setup carries only those.
//
// Downgrade rule: requests at or below the plan pass as asked; requests
// above it are granted the planned profile instead. Setup asks the plan
// again, and a grant it moved below mid-dial is denied typed; the client
// renegotiates and redials. The ModeledCmpDelay reply
// field is the session profile's registry price of the blocks served
// (profile.BlockCycles, with the rotations a matvec block ran, at
// profile.RefHz) — the same number the control plane's λ choice plans
// with.
//
// # Control plane
//
// ServerConfig.Control optionally attaches a closed-loop control plane
// (the Controller interface, implemented by internal/control). With it,
// Setup and compute admission become plan decisions — a Setup past the
// plan's capacity is refused serve.CodeAdmissionDenied, a block whose
// rekey the session's key pool cannot fund serve.CodeKeyExhausted —
// per-session rekey byte budgets are derived online from the paper's
// security-level utility U_msl instead of the static RekeyBytes constant,
// and the server publishes per-block telemetry (bytes, latency, outcome)
// back into the plane. A nil Control preserves the static
// admit-until-evicted behavior exactly; see internal/control's package
// comment for the telemetry → plan → actuation loop.
//
// # Wire protocol
//
// There is one protocol and one version of it. Every frame is
//
//	offset 0     magic    0xAD 0x51
//	offset 2     version  0x0f
//	offset 3     type     one of 8: the opening requests profile and setup;
//	                      the session requests compute, matvec, rekey and
//	                      rotation keys; and two replies, compute (every
//	                      op) and session (everything else)
//	offset 4     reqID    uint64, little-endian
//	offset 12    length   uint32 payload byte count
//	offset 16    payload
//	offset 16+n  crc      CRC32C (Castagnoli) over header and payload
//
// The checksum trailer is outside the length field and is verified on
// every frame in both directions: corruption fails with the typed
// ErrFrameChecksum (and quhe_wire_checksum_failures_total) instead of a
// garbage decode. HE payloads (ciphertexts, keys) travel as raw
// little-endian uint64 coefficient runs, one per residue-tower limb, via
// the ckks/ring AppendBinary/DecodeFrom codecs — reflection-free and
// allocation-free in steady state. Payload fields are all mandatory and
// positional: a session reply always carries Code, Err, Profile, Epoch
// and MatVecDim (Profile answers a profile query only; MatVecDim is zero
// when the server holds no model matrix — that is how a Setup reply tells
// matvec availability), and Compute/MatVec requests always end in the
// 16-byte trace context, all zero when the request is unsampled. A decoder that runs out of bytes, or has bytes
// left over, reports ErrBadFrame and the connection is closed.
//
// Each block's public keystream coefficients come from a ChaCha20 stream
// of its own, keyed by the HChaCha20 subkey of the public expansion key
// and nonce‖block and read from counter 0 (see internal/transcipher), so
// no two blocks share keystream.
//
// Replies travel on two frames. Every per-block op, matvec included,
// answers on frameComputeReply. Every other request — profile query,
// Setup, Rekey and each rotation key — has a handler in server.go that
// decodes its payload (one that does not decode closes the connection),
// validates before it installs anything and answers with one SessionReply
// on frameSessionReply: a typed refusal with nothing installed, or the
// fields its request has an answer for. The request ID says what a reply
// answers, and the client turns every refusal into the typed error of its
// code through one helper.
//
// Switching keys travel seeded. A relinearization or Galois key is its
// gadget header (digit and limb counts, degree, the extended basis's
// moduli), a 32-byte seed and its component-0 runs only; the uniform
// component 1 is expanded from the seed by AES-256-CTR on decode, straight
// into evaluation form. Each key is as wide as the level the server
// switches it at, which the profile derives (ckks.Context.RelinLevel and
// GaloisLevel): the relinearization key is built for the transcipher's
// squaring level, top−1, 3 digits × 4 limbs on the depth-3 chain, and a
// Galois key for the matvec level, top−2, 2 digits × 3 limbs. Setup carries
// the relinearization key, the HE-encrypted transciphering key and the
// nonce; the client's public key stays with the client, the only party
// that encrypts under it.
//
// Rotation keys upload one per frame: a RotKeys request is one Galois key. The BSGS kernel folds its giant blocks in by
// Horner's rule, each step a rotation by n1, so the rotation set a session
// uploads and the server accepts is ckks.BSGSRotations of the model
// dimension — the baby steps 1…n1−1 and n1, n1 keys (16 for a 256×256
// model, 3.1 MB at λ-128k) — and a key for any other rotation is refused
// as outside the plan. The client generates each key into the same storage
// and sends it without waiting for the previous reply, then collects every
// reply, so neither end holds more than one key in flight and no frame
// grows with the model (the largest legal frame is a λ-128k Setup, 2,490,562
// bytes of payload under the 4 MiB cap; one λ-128k key's frame is 196,682). The server checks each key
// as it arrives and keeps it in a set pending on the connection; the set
// is installed on the session atomically the moment it covers the plan's
// rotations, and until then the session serves no matvec. A repeated key
// and a key after the set is installed are refused typed. A partial set
// dies with its connection, as the session does.
//
// # The opening
//
// A connection has two phases. The opening is the profile query, the only
// frame that names a session, and Setup: the client sends each and reads
// its reply before it starts its read loop, and the server reads and
// answers each before it starts the connection's reply writer. A refused
// Setup installs nothing and the opening goes on; it ends when a Setup
// registers. The server reads the whole opening under one bound,
// openingTimeout from accept, so a peer that never registers is closed,
// and the idle deadline starts only after Setup: the client's key
// generation between the two frames is not idleness. A session frame or
// a Setup without a grant in the opening, or an opening frame after it,
// closes the connection without a reply.
//
// The version byte names the whole wire format — framing, field lists,
// ciphertext layout — so there is nothing to negotiate and no feature
// flags: an incompatible change bumps frameVersion. A version mismatch
// therefore looks like this: the server reads a first frame that is not a
// current-version profile query (a gob stream from a retired client, the
// previous version's query, garbage, a session frame, a Setup), counts
// it in quhe_wire_protocol_mismatch_total and closes without replying,
// before any session or worker is touched; the client, whose query was not
// answered within negotiateTimeout, fails the dial with an error wrapping
// ErrProtocolMismatch. There is no fallback generation to redial on.
//
// # Session lifetime
//
// After the opening the connection is its session. Compute, MatVec, Rekey
// and RotKeys frames carry no session ID: each acts on the session the
// connection's Setup registered, so no connection can reach another's
// session (and spend the QKD key behind it). Requests carry nonzero IDs,
// many may be in flight, and replies return out of order matched by ID.
// When the connection ends — the client closes it, the idle deadline
// reclaims it, the transport is lost — its teardown removes its session
// from the session table, by identity: a session evicted and registered
// again under the same ID, on another connection, stays. The control
// plane's next plan no longer holds it, and the ID is free for a new Setup
// at once. Nothing outlives the connection and nothing resumes: a client
// whose connection is lost sees serve.ErrConnClosed on every pending and
// later call, and dials again — a new Setup with new QKD key material.
// DialQKDWith draws that key after the profile grant, so a dial refused
// locally or at the query spends none; admission is a Setup decision made
// against the pool after the withdrawal, so a dial refused there has spent
// its bytes.
//
// Setup, Rekey and rotation-key upload are where key material crosses
// the trust boundary, and each validates before installing: the
// relinearization key and every Galois key must fit the session
// profile's ring at the level the server switches it at — one digit per
// chain prime of that level, every component over that level's extended
// basis with N coefficients per limb, so a key for any other level is
// refused (serve.CodeParamMismatch) — with every residue below its
// modulus (serve.CodeBadRequest; ckks.Context.CheckSwitchingKey), and the transciphering key ciphertexts
// must sit at the top level, one limb of N reduced coefficients per
// level. Anything else is refused before a lazy-reduction transform or an
// indexed digit loop can see it; a refused Setup registers nothing, a
// refused Rekey leaves the live key and epoch untouched, a refused
// rotation key stays out of the pending set, so the session gets no
// rotation keys until a good one takes its place. An accepted
// transciphering key is converted in place to the evaluation form the
// keystream kernel reads (transcipher.Cipher.InstallKey): 2·KeyLen
// forward transforms per limb once per key generation instead of once
// per block; serve.Session holds only the installed form, swapped
// together with nonce and epoch under its lock.
//
// # The op table
//
// What a session can run on a masked block is a table (ops in
// server.go), one row per op: its request frame type (every op uses the
// Compute codecs and replies on frameComputeReply), whether the transcipher applies the model's
// slot-wise weights and bias or the identity while it decrypts, and an
// optional kernel run on the transcipher's output together with that
// kernel's readiness check and trace stage. Today: compute (affine fused
// into the transcipher, no kernel) and matvec (identity, then the hoisted
// BSGS matrix kernel under the session's rotation keys, traced as the
// matvec stage). The deepest row sets every profile's chain: the
// transcipher's transcipher.Levels plus the matvec kernel's
// ckks.MatVecLevels, depth 3 (profile.NewRegistry refuses a shallower
// profile). Every reply leaves at level 0, one 60-bit limb at a ≈50-bit
// scale: a matvec reply lands there, and a compute reply, which the
// transcipher leaves at level 1, is sliced to its bottom limb before it
// is encoded (ckks.Ciphertext.DropTo; the client decrypts the same
// integer from half the bytes). A slot then decodes while |m| < 2⁹ (ckks
// linalg.go, "Headroom"), so NewServer refuses, with ErrModelHeadroom, a
// model whose reply slots at inputs |x| ≤ 1 could pass 2⁸ in |Re| + |Im|:
// |w|·|x| + |bias| + max(w², 1)/2 per affine slot, the last term the
// transcipher's imaginary parts, and Σ_j |M_ij|·(|x| + 1/2) + |bias| per
// matrix row.
// Everything else is one pipeline shared by every row,
//
//	window → decode → session lookup → submit to the profile's pool →
//	  [ready → slot bound → key epoch → AdmitCompute → rekey budget →
//	   transcipher → kernel → level 0 → RecordBlock / ObserveCompute →
//	   encode] →
//	hand-off → write
//
// in handleOp and evalBlock; a Client.ComputeBatch is that many compute
// frames. Adding an op is a kernel function plus a row (and a client entry
// point calling submit with the row's frame type): the gates, accounting,
// tracing, shedding and reply framing come with the pipeline, and
// TestOpGates walks every row through every gate.
//
// Each connection has a window and a reply writer. The decode loop admits
// an op frame only while fewer than the scheduler's capacity
// (ServerConfig.QueueDepth, controller or not) are in flight on the
// connection, so a peer that outruns its window feels TCP
// backpressure on its own socket, an idle server never sheds one
// connection's burst, and serve.CodeOverloaded is what contention between
// connections gets. Eval workers only evaluate and encode; they hand the
// finished frame to the connection's reply writer — the one goroutine
// that writes op replies, each the moment it is ready, out of order — so
// a peer that stops reading stalls its own window, never an eval-pool
// worker.
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
// Transmission and computation delays are modeled (reported in replies:
// upload bits over a fixed uplink rate, and the profile registry's price
// of the served blocks) rather than slept, so tests and examples run fast.
//
// # Observability and the debug plane
//
// The server instruments its full serving path against internal/obs: a
// lock-cheap metrics registry (wire frame/byte counters per direction,
// per-stage latency histograms quhe_stage_seconds{stage=decode|
// queue_wait|eval|matvec|encode|write}, per-profile eval latency and pool
// gauges, compute outcomes by code, scheduler queue depth/sheds, session
// and rekey counters, NTT inline-degradation and QKD flow counters via
// the control plane) plus a per-block tracer on the per-block op path —
// every block's stage spans, ring-buffered per session for the 1024
// sessions recorded most recently (a new session evicts the least recent
// one's ring), dumpable as chrome://tracing JSON. Instrumentation is
// always on — there is no bare serving path, and no switch for it. Each
// server owns one registry and hands it to its Controller at
// construction (BindServe), so a controlled server's single scrape shows
// the whole loop: replans, plan deltas and key-centre stock beside the
// serving series. Each computed block is counted once, in
// quhe_serve_compute_total{code} and in its profile's quhe_eval_seconds;
// availability and latency objectives are expressions over those two
// (see package obs).
//
// Tracing is distributed and causal. A client armed with
// DialConfig.Tracer mints a per-block trace context (trace ID, root
// span, sampled bit — obs.TraceContext), records its own spans
// (dial/handshake/keygen/setup on dial; mask/submit/wait per sampled
// compute; rekey as a standalone event) under Proc
// "client", and sends the
// 16-byte context in the request frame. The server re-parents its stage
// spans under that
// context, so the two halves merge into one trace ID in a combined
// chrome dump. DialConfig.TraceSample bounds the per-block cost:
// lifecycle spans are always recorded (rare, each explains a latency
// cliff), per-compute spans and wire contexts follow the seeded
// sampling decision. Each scheduler drain goroutine additionally takes
// its pool's quhe_profile pprof label once, when it starts, splitting CPU
// profiles by security profile.
//
// The metrics become reachable only when ServerConfig.DebugAddr binds
// the HTTP debug plane (obs.ServeDebug): /metrics in the Prometheus
// text format, /debug/pprof/*, /debug/trace (filterable by ?session=
// and ?limit=, 400 on malformed parameters) and, with a Controller
// attached, /debug/plan and /debug/keyledger
// rendering its live plan and its key centre's per-cause QKD withdrawal
// ledger (Controller.PlanJSON and LedgerJSON). Security
// posture: the plane is off unless configured, and it serves operational
// internals — latency profiles, session counts, live pprof — without
// authentication, so bind it to loopback (or a trusted scrape network)
// and never to the serving address.
//
// # Failure handling
//
// Every failure a caller can see is typed (serve.Code on the wire,
// errors.Is-able sentinels in Go), and each code carries a contract: is a
// retry worth anything, what should the client do, and what the failure
// looks like in a client trace dump (the "traced as" column; a sampled
// block's wait span always closes with the outcome, so untraced-as rows
// just end there). The matrix — the client's automatic behavior is what
// Client's unified retry policy does on its own:
//
//	code (serve.*)        retryable?             traced as               client action
//	--------------------  ---------------------  ----------------------  ------------------------------------------
//	CodeOverloaded        yes, immediately       wait span closes        the caller backs off briefly and resends;
//	                                                                     the queue was full at that instant (load,
//	                                                                     not state). Not retried automatically
//	CodeRekeyRequired     yes, after rekey       rekey event             RekeyIfEpoch(epoch) then resend at once —
//	                                                                     automatic inside Compute/ComputeBatch,
//	                                                                     budget-capped (three resends); no sleep:
//	                                                                     the epoch moves only once the server's
//	                                                                     Rekey reply confirmed the new key
//	CodeKeyExhausted      yes, after retry-after wait span closes        the caller waits the *serve.KeyExhaustedError's
//	                                                                     RetryAfter, derived from the QKD
//	                                                                     provisioning rate; degradation, not failure.
//	                                                                     Not retried automatically
//	CodeAdmissionDenied   no (until replan)      wait span closes        the control plane's standing decision;
//	                                                                     resending sooner than the next plan is noise
//	CodeProfileDenied     no                     wait span closes        renegotiate the profile (redial); never run
//	                                                                     at a different λ than granted
//	CodeUnknownSession    no                     wait span closes        the session was evicted (MaxSessions) or
//	                                                                     ended with its connection: redial
//	CodeConnClosed        no (session gone)      wait span closes        the connection is gone and its session with
//	                                                                     it; every pending call fails with this
//	                                                                     code: redial — new Setup, new QKD key — and
//	                                                                     resend what the caller still wants
//	CodeDeadline          caller's choice        wait span closes at     the request was abandoned after
//	                                             the timeout             DialConfig.RequestTimeout; a late reply is
//	                                                                     dropped, so a resend is safe but the block
//	                                                                     may have been served
//	CodeBadRequest,       no                     wait span closes        fix the request; these are programming or
//	CodeParamMismatch,                                                   negotiation errors, not transients
//	CodeOversized
//	CodeInternal          maybe once             wait span closes        server-side evaluation failure; one resend
//	                                                                     distinguishes a transient from a real bug
//
// Server-side hardening: openingTimeout bounds a connection without a
// session in time (not yet in bytes: it holds its buffers until then), and
// ServerConfig.IdleTimeout bounds how long a connection may sit idle after
// Setup (a client waiting on its own in-flight replies is not idle); either
// close ends the connection's session like any other. The chaos suite (chaos_test.go, with the seeded fault injector in
// faultnet_test.go) pins the whole contract under seeded byte-level
// faults: typed errors, no hangs, no wrong plaintexts.
package edge
