package edge

import (
	"bufio"
	"context"
	"crypto/hmac"
	"crypto/rand"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/costmodel"
	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/serve"
	"quhe/internal/transcipher"
)

// Model is the inference the server evaluates on encrypted data. The
// slot-wise affine layer out[i] = Weights[i]·x[i] + Bias[i] (Weights
// quantized to multiples of 1/WeightScale when applied) serves every
// Compute; an optional square Matrix additionally enables the encrypted
// matrix–vector path out = Matrix·x + MatrixBias, evaluated with the
// hoisted BSGS rotation kernel on MatVec requests.
type Model struct {
	Weights []float64
	Bias    []float64
	// Matrix is the packed model matrix for MatVec requests: square, with
	// a dimension dividing every served profile's slot count. Empty
	// disables the matvec capability (the hello ack never advertises it).
	Matrix [][]float64
	// MatrixBias is added slot-wise to the matvec output; nil for none.
	MatrixBias []float64
}

// ServerConfig parameterizes the edge server.
type ServerConfig struct {
	// Model is the inference applied to every block.
	Model Model
	// UplinkRateBps models the client upload rate for delay reporting.
	// Default 5e6.
	UplinkRateBps float64
	// ServerHz models the CPU share for delay reporting. Default 3.3e9.
	ServerHz float64
	// Logf sinks diagnostics; nil discards them.
	Logf func(format string, args ...interface{})
	// Workers sizes each security profile's evaluator pool (and the
	// scheduler parallelism). Default GOMAXPROCS. Workers are built
	// lazily, so profiles without traffic cost nothing; evaluator memory
	// is bounded by Workers × live profiles, never by the session count.
	Workers int
	// QueueDepth bounds the scheduler backlog; pipelined requests beyond
	// it are shed with serve.CodeOverloaded. Default 4×Workers. With a
	// Control plane attached this is the built ceiling — the plan may
	// shrink the live depth below it.
	QueueDepth int
	// MaxSessions caps resident sessions; registering past the cap
	// evicts the least recently used. Default 1024; negative = unbounded.
	// A Control plane may shrink the live cap below this built ceiling.
	MaxSessions int
	// RekeyBytes is the per-key byte budget: once a session has served
	// this many masked bytes under one key, computes fail with
	// serve.CodeRekeyRequired until the client rekeys. 0 disables
	// enforcement. With a Control plane attached, the plan's per-session
	// budgets (derived from the paper's security-level utility) take
	// precedence and RekeyBytes is only the fallback.
	RekeyBytes int64
	// Profiles is the security-profile registry sessions may register on:
	// the paper's λ choice actuated as real CKKS parameter sets. Nil
	// selects the shared built-in registry (profile.Default()); its
	// default member carries the historical fixed parameter set, so
	// legacy peers are unaffected.
	Profiles *profile.Registry
	// CalibrateProfiles measures every registry profile's real per-block
	// cost at server startup (profile.Registry.CalibrateAll) and installs
	// the results as the cost coefficients the control plane plans with,
	// replacing the modeled a·L·N·log2N values. Startup pays one key
	// generation and a few transcipher rounds per profile, so it is opt-in;
	// leave false for tests and latency-sensitive restarts.
	CalibrateProfiles bool
	// Control, when non-nil, closes the loop with a control plane
	// (internal/control): Setup and compute admission are delegated to
	// it, profile negotiation follows its per-route λ plan, rekey budgets
	// come from its plan, and per-block telemetry is published back. Nil
	// preserves the static admit-until-evicted behavior exactly.
	Control Controller
	// BatchWindow bounds the in-flight item frames of one streaming (v3)
	// batch: an item is not submitted to the scheduler until an earlier
	// item's reply frame has reached the socket once the window is full,
	// so a slow client reading item frames stalls only its own batch,
	// never an eval-pool worker. Default QueueDepth (capped at that, too:
	// larger windows could let one batch shed itself on an idle server).
	BatchWindow int
	// LegacyGobOnly disables the framed v3 protocol, emulating a pre-v3
	// server: every connection is served on the gob path, and v3 hellos
	// fail to gob-decode so v3 clients fall back. Exists for
	// compatibility testing; leave false in production.
	LegacyGobOnly bool
	// FrameChecksums accepts per-frame CRC32C trailers from v3 clients
	// that request them at the handshake (integrity on untrusted links).
	// Clients that do not ask — including every pre-checksum client —
	// are served without trailers, so enabling this is always safe.
	FrameChecksums bool
	// DebugAddr, when non-empty, binds the observability debug plane
	// (obs.ServeDebug) on that address: /metrics in the Prometheus text
	// format, /debug/pprof/*, /debug/plan (the controller's live plan),
	// /debug/trace (chrome://tracing span dump), /debug/slo (objectives,
	// attainment and burn rates) and /debug/keyledger (the QKD key-flow
	// ledger, when KeyLedgerJSON is wired). Off by default; bind
	// loopback ("127.0.0.1:0") unless the scrape network is trusted — the
	// plane serves operational internals without authentication.
	DebugAddr string
	// Obs is the metrics registry the server publishes into. Nil creates
	// a private registry; pass a shared one to combine server and
	// control-plane series on a single /metrics page.
	Obs *obs.Registry
	// DisableObs turns the observability substrate off entirely — no
	// registry, no tracer, no per-stage instrumentation. Exists so the
	// overhead benchmark can compare the instrumented hot path against
	// the bare one; leave false in production.
	DisableObs bool
	// IdleTimeout bounds how long a connection may sit with no inbound
	// frames and no in-flight work before the server closes it: half-dead
	// peers release their sessions back to resumable state instead of
	// pinning them. A connection waiting on its own replies (queued
	// computes, streaming batches) is not idle. The timeout also bounds a
	// single frame's read, so it must comfortably exceed the worst-case
	// frame transfer time (Setup frames run to megabytes). 0 disables.
	IdleTimeout time.Duration
	// ResumeWindow bounds how long a session outlives its last connection
	// before being reclaimed: within the window a reconnecting client can
	// resume (session ID + epoch + possession proof) with no re-keygen
	// and no new QKD withdrawal; past it the session is swept and a
	// resume fails typed. 0 keeps the pre-window behavior — sessions
	// survive disconnects until LRU eviction.
	ResumeWindow time.Duration
	// KeyLedgerJSON, when set, is rendered at /debug/keyledger on the
	// debug plane. The server never sees QKD withdrawals itself (clients
	// talk to the key centre directly), so the deployment wires in the
	// ledger snapshot — typically qkd.(*Ledger).Snapshot via closure.
	KeyLedgerJSON func() any
}

// profileRuntime is one security profile's serving substrate: the shared
// CKKS context and the transciphering cipher over it. Runtimes are built
// lazily per profile and cached for the server's lifetime; the matching
// evaluator pool lives in the per-profile PoolSet.
type profileRuntime struct {
	prof   *profile.Profile
	ctx    *ckks.Context
	cipher *transcipher.Cipher

	// The matvec plan — the model matrix's diagonals encoded at the
	// transcipher output level and scale — is built once per profile on
	// first use and shared by every worker (plans are read-only during
	// evaluation). mvErr latches a build failure so each request fails
	// typed instead of retrying the doomed encode.
	mvOnce sync.Once
	mvPlan *ckks.MatVecPlan
	mvErr  error
}

// Server is the QuHE edge server: it accepts client sessions — each on a
// negotiated security profile — transciphers uploads and computes on them
// homomorphically. Safe for concurrent clients; see the package comment
// for the serving architecture.
type Server struct {
	cfg ServerConfig
	reg *profile.Registry
	def *profileRuntime

	// runtimes maps profile ID → *profileRuntime. Reads on the compute
	// hot path are lock-free (sync.Map, plus the def fast path); rtMu
	// only serializes first-use builds.
	rtMu     sync.Mutex
	runtimes sync.Map

	listener net.Listener

	store *serve.Store
	pools *serve.PoolSet
	sched *serve.Scheduler

	// met is the observability instrument set (nil when DisableObs);
	// debug the opt-in HTTP debug plane (nil unless DebugAddr set).
	met   *serverObs
	debug *obs.DebugServer

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	// conns tracks live connections so Close can tear them down: without
	// it, a peer that stalls mid-read (batch writer blocked on its
	// socket) would pin Close in wg.Wait forever. Each connection's state
	// carries its in-flight work count (Drain's idleness signal) and its
	// attached sessions (detached into the resume window on teardown).
	conns map[net.Conn]*connState

	// draining rejects new sessions, resumes and computes while Drain
	// winds live connections down; lnOnce makes the listener close safe
	// to reach from both Drain and Close.
	draining atomic.Bool
	lnOnce   sync.Once
	lnErr    error
	// reapStop ends the resume-window reaper (nil when ResumeWindow is 0).
	reapStop chan struct{}
}

// connState is the server's per-connection bookkeeping. active counts
// dispatched requests whose replies have not reached the socket yet —
// Drain closes a connection only when it reads zero. attached holds the
// sessions bound to the connection (by Setup or a granted resume); on
// teardown each is detached into the resume window.
type connState struct {
	active atomic.Int64

	mu       sync.Mutex
	attached map[string]*serve.Session
}

// attach binds a session to the connection (idempotent per session).
func (cs *connState) attach(sess *serve.Session) {
	cs.mu.Lock()
	if _, ok := cs.attached[sess.ID]; !ok {
		if cs.attached == nil {
			cs.attached = make(map[string]*serve.Session, 1)
		}
		cs.attached[sess.ID] = sess
		sess.Attach()
	}
	cs.mu.Unlock()
}

// detachAll releases every attached session into the resume window.
func (cs *connState) detachAll(nowUnixNano int64) {
	cs.mu.Lock()
	for _, sess := range cs.attached {
		sess.Detach(nowUnixNano)
	}
	cs.attached = nil
	cs.mu.Unlock()
}

// NewServer builds a server over the profile registry and starts
// listening on addr (use "127.0.0.1:0" for tests). The default profile's
// runtime is built eagerly so configuration errors fail here, not on the
// first Setup.
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.UplinkRateBps <= 0 {
		cfg.UplinkRateBps = 5e6
	}
	if cfg.ServerHz <= 0 {
		cfg.ServerHz = 3.3e9
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 1024
	} else if cfg.MaxSessions < 0 {
		cfg.MaxSessions = 0 // unbounded
	}
	if cfg.BatchWindow <= 0 || cfg.BatchWindow > cfg.QueueDepth {
		cfg.BatchWindow = cfg.QueueDepth
	}
	if cfg.Profiles == nil {
		cfg.Profiles = profile.Default()
	}
	if cfg.CalibrateProfiles {
		if err := cfg.Profiles.CalibrateAll(KeyLen, 3); err != nil {
			return nil, fmt.Errorf("edge: profile calibration: %w", err)
		}
	}
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Profiles,
		store: serve.NewStore(cfg.MaxSessions),
	}
	def, err := s.runtime(s.reg.DefaultID())
	if err != nil {
		return nil, fmt.Errorf("edge: default profile: %w", err)
	}
	s.def = def
	s.pools = serve.NewPoolSet(func(profileID string) (*serve.EvalPool, error) {
		rt, err := s.runtime(profileID)
		if err != nil {
			return nil, err
		}
		p := serve.NewEvalPool(rt.ctx, cfg.Workers, 1, func(int) any { return rt.cipher.NewScratch() })
		p.SetProfileLabel(profileID)
		if s.met != nil {
			s.met.registerPoolGauges(profileID, p)
		}
		return p, nil
	})
	defPool, err := s.pools.Get(s.reg.DefaultID())
	if err != nil {
		return nil, fmt.Errorf("edge: default pool: %w", err)
	}
	s.sched = serve.NewScheduler(defPool, cfg.QueueDepth)
	if !cfg.DisableObs {
		reg := cfg.Obs
		if reg == nil {
			reg = obs.NewRegistry()
		}
		s.met = newServerObs(reg, s)
		// The default pool was built before met existed; backfill its
		// gauges so the first /metrics scrape already shows it.
		s.met.registerPoolGauges(s.reg.DefaultID(), defPool)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.sched.Close()
		return nil, fmt.Errorf("edge: listen: %w", err)
	}
	s.listener = ln
	s.conns = make(map[net.Conn]*connState)
	if cfg.Control != nil {
		cfg.Control.BindServe(s.pools, s.sched, s.store)
	}
	if cfg.DebugAddr != "" && s.met != nil {
		dcfg := obs.DebugConfig{
			Registry:  s.met.reg,
			Tracer:    s.met.tracer,
			SLO:       s.met.sloSnapshot,
			KeyLedger: cfg.KeyLedgerJSON,
		}
		// The Controller interface stays minimal; controllers that can
		// render their plan opt into /debug/plan by implementing PlanJSON.
		if pj, ok := cfg.Control.(interface{ PlanJSON() any }); ok {
			dcfg.Plan = pj.PlanJSON
		}
		ds, err := obs.ServeDebug(cfg.DebugAddr, dcfg)
		if err != nil {
			ln.Close()
			s.sched.Close()
			return nil, fmt.Errorf("edge: debug plane: %w", err)
		}
		s.debug = ds
	}
	if cfg.ResumeWindow > 0 {
		s.reapStop = make(chan struct{})
		s.wg.Add(1)
		go s.reapLoop()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// reapLoop sweeps sessions whose resume window has expired: detached
// longer than ResumeWindow ago, reclaimed ahead of normal LRU pressure.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	tick := s.cfg.ResumeWindow / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.cfg.ResumeWindow).UnixNano()
			if n := s.store.SweepExpired(cutoff); n > 0 {
				if m := s.met; m != nil {
					m.resumeExpired.Add(int64(n))
				}
				s.cfg.Logf("edge: resume window expired for %d sessions", n)
			}
		}
	}
}

// runtime returns the profile's serving substrate, building and caching
// it on first use. The default profile and already-built profiles
// resolve without taking a lock (the per-request hot path); rtMu only
// serializes first-use builds, and context construction is shared
// process-wide through the profile registry, so only the cipher binding
// is per server.
func (s *Server) runtime(profileID string) (*profileRuntime, error) {
	if def := s.def; def != nil && profileID == def.prof.ID {
		return def, nil
	}
	if rt, ok := s.runtimes.Load(profileID); ok {
		return rt.(*profileRuntime), nil
	}
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	if rt, ok := s.runtimes.Load(profileID); ok {
		return rt.(*profileRuntime), nil
	}
	prof, ok := s.reg.Get(profileID)
	if !ok {
		return nil, fmt.Errorf("%w: unknown profile %q", serve.ErrProfileDenied, profileID)
	}
	ctx, err := prof.Context()
	if err != nil {
		return nil, fmt.Errorf("edge: context for %s: %w", profileID, err)
	}
	cipher, err := transcipher.New(ctx, KeyLen)
	if err != nil {
		return nil, fmt.Errorf("edge: cipher for %s: %w", profileID, err)
	}
	rt := &profileRuntime{prof: prof, ctx: ctx, cipher: cipher}
	s.runtimes.Store(profileID, rt)
	return rt, nil
}

// sessionRuntime resolves a session's profile to its runtime and
// evaluator pool (sessions registered before the profile era carry an
// empty profile and run on the default).
func (s *Server) sessionRuntime(sess *serve.Session) (*profileRuntime, *serve.EvalPool, error) {
	profID := sess.Profile
	if profID == "" {
		profID = s.reg.DefaultID()
	}
	rt, err := s.runtime(profID)
	if err != nil {
		return nil, nil, err
	}
	pool, err := s.pools.Get(profID)
	if err != nil {
		return nil, nil, err
	}
	return rt, pool, nil
}

// matvecPlan returns the profile's BSGS matrix–vector plan, building it
// on first use. The plan targets the transcipher output contract — level
// top−2 at scale Δ²/p (Δ the top prime, p the one below) — so a MatVec
// request transciphers its block and feeds the result straight into the
// kernel with no level or scale adjustment. Built with a throwaway
// evaluator; the plan itself is immutable and shared across workers.
func (s *Server) matvecPlan(rt *profileRuntime) (*ckks.MatVecPlan, error) {
	rt.mvOnce.Do(func() {
		if len(s.cfg.Model.Matrix) == 0 {
			rt.mvErr = fmt.Errorf("%w: no model matrix configured", serve.ErrMatVecUnavailable)
			return
		}
		top := rt.ctx.MaxLevel()
		if top < 3 {
			rt.mvErr = fmt.Errorf("%w: profile %s too shallow (depth %d; matvec needs the transcipher's two levels plus one)",
				serve.ErrMatVecUnavailable, rt.prof.ID, top)
			return
		}
		delta := float64(rt.ctx.Primes[top])
		scale := delta * delta / float64(rt.ctx.Primes[top-1])
		ev := ckks.NewEvaluator(rt.ctx, 1)
		plan, err := ev.NewMatVecPlan(s.cfg.Model.Matrix, s.cfg.Model.MatrixBias, top-2, scale)
		if err != nil {
			rt.mvErr = fmt.Errorf("%w: plan for profile %s: %v", serve.ErrMatVecUnavailable, rt.prof.ID, err)
			return
		}
		rt.mvPlan = plan
	})
	return rt.mvPlan, rt.mvErr
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// ObsRegistry returns the server's metrics registry (the configured
// shared one or the private default), nil when DisableObs.
func (s *Server) ObsRegistry() *obs.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

// Tracer returns the server's block tracer, nil when DisableObs.
func (s *Server) Tracer() *obs.Tracer {
	if s.met == nil {
		return nil
	}
	return s.met.tracer
}

// DebugAddr returns the debug plane's bound address, "" when the plane
// was not configured.
func (s *Server) DebugAddr() string {
	if s.debug == nil {
		return ""
	}
	return s.debug.Addr()
}

// closeListener closes the listener exactly once (Drain and Close both
// reach it) and remembers the first close's error.
func (s *Server) closeListener() error {
	s.lnOnce.Do(func() { s.lnErr = s.listener.Close() })
	return s.lnErr
}

// Close stops accepting, tears down live connections (so a stalled peer
// cannot pin shutdown), waits for in-flight handlers to finish and drains
// the scheduler.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.debug != nil {
		s.debug.Close()
	}
	err := s.closeListener()
	for _, c := range conns {
		c.Close()
	}
	if s.reapStop != nil {
		close(s.reapStop)
	}
	s.wg.Wait()
	s.sched.Close()
	return err
}

// Drain gracefully winds the server down for a restart: stop accepting,
// turn new sessions, resumes and computes away with serve.CodeDraining,
// let in-flight blocks finish, and close each connection the moment it
// has no work left — nudging idle clients off to reconnect elsewhere.
// Returns nil once every connection is gone, or ctx's error after
// force-closing whatever remained when the context expired. Call Close
// afterwards to release the remaining resources (scheduler, debug
// plane); Drain leaves them running so in-flight work can finish.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.Swap(true) {
		if m := s.met; m != nil {
			m.drains.Inc()
		}
		s.cfg.Logf("edge: draining")
	}
	s.closeListener()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		busy := 0
		idle := make([]net.Conn, 0, len(s.conns))
		for conn, cs := range s.conns {
			if cs.active.Load() == 0 {
				idle = append(idle, conn)
			} else {
				busy++
			}
		}
		s.mu.Unlock()
		for _, c := range idle {
			c.Close()
		}
		if busy == 0 && len(idle) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			conns := make([]net.Conn, 0, len(s.conns))
			for c := range s.conns {
				conns = append(conns, c)
			}
			s.mu.Unlock()
			for _, c := range conns {
				c.Close()
			}
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Draining reports whether the server is turning new work away.
func (s *Server) Draining() bool { return s.draining.Load() }

// trackConn registers a live connection for Close-time teardown; it
// reports nil (and closes the connection) when the server is already
// closing.
func (s *Server) trackConn(conn net.Conn) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return nil
	}
	cs := &connState{}
	s.conns[conn] = cs
	return cs
}

func (s *Server) forgetConn(conn net.Conn) {
	s.mu.Lock()
	cs := s.conns[conn]
	delete(s.conns, conn)
	s.mu.Unlock()
	if cs != nil {
		cs.detachAll(time.Now().UnixNano())
	}
}

// Blocks returns the number of blocks processed for a session. Read-only:
// it does not refresh the session's LRU position.
func (s *Server) Blocks(sessionID string) int {
	if sess, ok := s.store.Peek(sessionID); ok {
		return int(sess.Stats().Blocks)
	}
	return 0
}

// SessionStats snapshots a session's usage counters. Read-only: it does
// not refresh the session's LRU position, so stats polling never protects
// an idle session from eviction.
func (s *Server) SessionStats(sessionID string) (serve.Stats, bool) {
	sess, ok := s.store.Peek(sessionID)
	if !ok {
		return serve.Stats{}, false
	}
	return sess.Stats(), true
}

// SessionProfile reports the security profile a session was registered
// on. Read-only, like SessionStats.
func (s *Server) SessionProfile(sessionID string) (string, bool) {
	sess, ok := s.store.Peek(sessionID)
	if !ok {
		return "", false
	}
	if sess.Profile == "" {
		return s.reg.DefaultID(), true
	}
	return sess.Profile, true
}

// Sessions counts resident sessions.
func (s *Server) Sessions() int { return s.store.Len() }

// Evictions counts sessions displaced by the MaxSessions cap.
func (s *Server) Evictions() int64 { return s.store.Evictions() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// connWriter serializes gob reply encoding: with pipelined requests,
// worker goroutines and the decode loop reply concurrently on one
// connection. An encode failure poisons the gob stream, so the writer
// tears the connection down — exactly once, through the teardown closure
// shared with the read loop — and the client's pending requests then fail
// with a connection error instead of hanging on replies that will never
// arrive.
type connWriter struct {
	mu  sync.Mutex
	enc *gob.Encoder
	// failed latches the first encode error. Atomic for the same reason
	// as frameWriter.failed: mu is held across socket writes, so dead()
	// must not take it.
	failed   atomic.Bool
	teardown func()
	logf     func(string, ...interface{})
}

// dead reports whether the connection's write side has already failed.
func (w *connWriter) dead() bool { return w.failed.Load() }

func (w *connWriter) send(reply *replyEnvelope) {
	w.mu.Lock()
	if w.failed.Load() {
		w.mu.Unlock()
		return
	}
	err := w.enc.Encode(reply)
	if err != nil {
		w.failed.Store(true)
	}
	w.mu.Unlock()
	if err != nil {
		w.logf("edge: encode: %v", err)
		w.teardown()
	}
}

// serveConn sniffs the protocol generation from the connection's first
// bytes: v3 clients lead with the frame magic (bytes gob never emits at
// stream start), everything else is a gob v1/v2 peer. Both paths share
// one close-once teardown so a writer-side failure and the read loop's
// exit cannot double-close the connection.
func (s *Server) serveConn(conn net.Conn) {
	cs := s.trackConn(conn)
	if cs == nil {
		return
	}
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			conn.Close()
			s.forgetConn(conn)
		})
	}
	defer teardown()
	br := bufio.NewReaderSize(conn, wireBufSize)
	if !s.cfg.LegacyGobOnly {
		if first, err := br.Peek(2); err == nil &&
			first[0] == frameMagic0 && first[1] == frameMagic1 {
			s.serveV3(conn, br, teardown, cs)
			return
		}
	}
	s.serveGob(br, conn, teardown, cs)
}

// awaitFrame enforces the idle deadline before a blocking read: it peeks
// for the next byte under a read deadline of IdleTimeout, extending the
// wait while the connection has in-flight work (a client waiting on its
// own replies is not idle). A true idle expiry closes the connection —
// the session detaches into the resume window. With IdleTimeout unset it
// is a no-op and the subsequent read blocks indefinitely, matching the
// pre-timeout behavior. Returns false when the connection should be torn
// down (the caller's read would fail anyway).
func (s *Server) awaitFrame(conn net.Conn, br *bufio.Reader, cs *connState) bool {
	idle := s.cfg.IdleTimeout
	if idle <= 0 {
		return true
	}
	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		if _, err := br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if cs.active.Load() > 0 {
					continue // replies in flight; not idle
				}
				if m := s.met; m != nil {
					m.idleTimeouts.Inc()
				}
				s.cfg.Logf("edge: idle timeout (%s) — releasing connection", idle)
			}
			return false
		}
		// Bytes are arriving: give the whole frame a fresh budget.
		conn.SetReadDeadline(time.Now().Add(idle))
		return true
	}
}

func (s *Server) serveGob(br *bufio.Reader, conn net.Conn, teardown func(), cs *connState) {
	if m := s.met; m != nil {
		m.connsGob.Add(1)
		defer m.connsGob.Add(-1)
	}
	dec := gob.NewDecoder(br)
	cw := &connWriter{enc: gob.NewEncoder(conn), teardown: teardown, logf: s.cfg.Logf}
	for {
		if !s.awaitFrame(conn, br, cs) {
			return
		}
		var env envelope
		if err := dec.Decode(&env); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("edge: decode: %v", err)
			}
			return
		}
		cs.active.Add(1)
		switch {
		case env.Setup != nil:
			cw.send(&replyEnvelope{ID: env.ID, Setup: s.handleSetup(env.Setup, cs)})
		case env.Rekey != nil:
			cw.send(&replyEnvelope{ID: env.ID, Rekey: s.handleRekey(env.Rekey)})
		case env.Compute != nil:
			s.handleCompute(cw, env.ID, env.Compute, cs)
		case env.Batch != nil:
			s.handleBatch(cw, env.ID, env.Batch, cs)
		default:
			cw.send(&replyEnvelope{ID: env.ID,
				Setup: &SetupReply{Err: "empty request", Code: serve.CodeBadRequest}})
		}
		cs.active.Add(-1)
	}
}

// serveV3 drives one framed v3 connection: hello handshake (checksum
// negotiation plus the profile-support advertisement), then a decode loop
// dispatching request frames. Replies go through one frameWriter per
// connection; batch items stream back as soon as each worker finishes.
func (s *Server) serveV3(conn net.Conn, br *bufio.Reader, teardown func(), cs *connState) {
	if m := s.met; m != nil {
		m.connsV3.Add(1)
		defer m.connsV3.Add(-1)
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	ftype, _, payload, err := readFrame(br, buf)
	if err != nil || ftype != frameHello {
		s.cfg.Logf("edge: v3 handshake: type %d err %v", ftype, err)
		return
	}
	// Feature negotiation: a client that wants CRC32C trailers sets the
	// flag in its hello payload; the ack echoes what the server accepts
	// and always advertises profile negotiation, the RNS wire format and
	// session resume. Pre-checksum clients send empty hellos and get the
	// empty ack they expect. The hello pair itself is always un-trailed;
	// crc flips before the loop, while this goroutine is still the only
	// sender.
	crc := s.cfg.FrameChecksums && len(payload) >= 1 && payload[0]&helloFlagCRC != 0
	rnsWire := len(payload) >= 1 && payload[0]&helloFlagRNSWire != 0
	// Matvec is negotiated per connection: the server advertises only when
	// it actually holds a matrix, and the path opens only when the client
	// asked too — so matvec frames from an un-negotiated peer are rejected
	// typed instead of evaluated against a missing plan.
	mvCap := len(s.cfg.Model.Matrix) > 0
	mv := mvCap && len(payload) >= 1 && payload[0]&helloFlagMatVec != 0
	var ack func(b []byte) []byte
	if len(payload) >= 1 {
		flags := byte(helloFlagProfiles | helloFlagRNSWire | helloFlagResume | helloFlagTrace)
		if crc {
			flags |= helloFlagCRC
		}
		if mvCap {
			flags |= helloFlagMatVec
		}
		ack = func(b []byte) []byte { return append(b, flags) }
	}
	fw := newFrameWriter(conn, teardown, s.cfg.Logf)
	if m := s.met; m != nil {
		fw.countSend = func(n int) {
			m.framesOut.Inc()
			m.bytesOut.Add(int64(n))
		}
	}
	if fw.sendFrame(frameHello, 0, ack) != nil {
		return
	}
	fw.crc = crc
	trailer := 0
	if crc {
		trailer = crcTrailerLen
	}
	for {
		if !s.awaitFrame(conn, br, cs) {
			return
		}
		ftype, id, payload, err := readFrameCRC(br, buf, crc)
		if err != nil {
			if errors.Is(err, ErrFrameChecksum) && s.met != nil {
				s.met.checksumFails.Inc()
			}
			// EOF is a normal goodbye; net.ErrClosed is our own Close
			// tearing the connection down.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("edge: v3 decode: %v", err)
			}
			return
		}
		if m := s.met; m != nil {
			m.framesIn.Inc()
			m.bytesIn.Add(int64(frameHeaderLen + len(payload) + trailer))
		}
		cs.active.Add(1)
		err = s.dispatchV3(fw, ftype, id, payload, rnsWire, v3conn{conn: conn, br: br, buf: buf, crc: crc, cs: cs, mv: mv})
		cs.active.Add(-1)
		if err != nil {
			// A payload that fails to decode is a protocol violation, not
			// a request we can answer: kill the connection.
			s.cfg.Logf("edge: v3 payload (type %d): %v", ftype, err)
			return
		}
	}
}

// v3conn bundles the read side of a v3 connection for handlers that run
// a sub-dialog inside the decode loop (the resume handshake).
type v3conn struct {
	conn net.Conn
	br   *bufio.Reader
	buf  *[]byte
	crc  bool
	cs   *connState
	// mv records whether the hello handshake negotiated the encrypted
	// matvec path (server holds a matrix AND the client asked).
	mv bool
}

func (s *Server) dispatchV3(fw *frameWriter, ftype byte, id uint64, payload []byte, rnsWire bool, vc v3conn) error {
	switch ftype {
	case frameProfile:
		req, err := decodeProfileRequest(payload)
		if err != nil {
			return err
		}
		rep := s.handleProfile(req)
		fw.sendFrame(frameProfileReply, id, func(b []byte) []byte { return appendProfileReply(b, rep) })
	case frameSetup:
		if !rnsWire {
			// The client never negotiated the residue-tower wire format,
			// so its Setup payload is in the old flat layout: decoding it
			// as limbs would misparse. Reject typed before touching it.
			rep := &SetupReply{Code: serve.CodeWireFormat,
				Err: "residue-tower wire format not negotiated at hello"}
			fw.sendFrame(frameSetupReply, id, func(b []byte) []byte { return appendSetupReply(b, rep) })
			return nil
		}
		req, err := decodeSetupRequest(payload)
		if err != nil {
			return err
		}
		rep := s.handleSetup(req, vc.cs)
		if vc.mv && rep.OK {
			// Tell the matvec-negotiated client which rotation keys the
			// kernel needs (ckks.BSGSRotations of this dimension).
			rep.MatVecDim = len(s.cfg.Model.Matrix)
		}
		fw.sendFrame(frameSetupReply, id, func(b []byte) []byte { return appendSetupReply(b, rep) })
	case frameResume:
		req, err := decodeResumeRequest(payload)
		if err != nil {
			return err
		}
		return s.handleResume(fw, vc, id, req)
	case frameRekey:
		req, err := decodeRekeyRequest(payload)
		if err != nil {
			return err
		}
		rep := s.handleRekey(req)
		fw.sendFrame(frameRekeyReply, id, func(b []byte) []byte { return appendRekeyReply(b, rep) })
	case frameCompute:
		// The decode timestamp anchors the block's trace: the earliest
		// point the server saw this request's bytes as a compute.
		var decodeStart time.Time
		if s.met != nil {
			decodeStart = time.Now()
		}
		req, err := decodeComputeRequest(payload)
		if err != nil {
			return err
		}
		s.handleComputeV3(fw, id, req, decodeStart, vc.cs)
	case frameBatch:
		req, err := decodeBatchRequest(payload)
		if err != nil {
			return err
		}
		s.handleBatchV3(fw, id, req, vc.cs)
	case frameRotKeys:
		req, err := decodeRotKeysRequest(payload)
		if err != nil {
			return err
		}
		rep := s.handleRotKeys(req, vc)
		fw.sendFrame(frameRotKeysReply, id, func(b []byte) []byte { return appendRotKeysReply(b, rep) })
	case frameMatVec:
		var decodeStart time.Time
		if s.met != nil {
			decodeStart = time.Now()
		}
		req, err := decodeComputeRequest(payload)
		if err != nil {
			return err
		}
		s.handleMatVecV3(fw, id, req, decodeStart, vc)
	default:
		return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, ftype)
	}
	return nil
}

// handleProfile resolves a pre-Setup profile query: the control plane's
// per-route λ plan steers empty requests and may downgrade or deny
// concrete ones; without a controller the server grants any profile its
// registry knows (empty resolving to the default).
func (s *Server) handleProfile(req *ProfileRequest) *ProfileReply {
	granted := req.Requested
	if ctl := s.cfg.Control; ctl != nil {
		g, err := ctl.NegotiateProfile(req.SessionID, req.Requested)
		if err != nil {
			s.cfg.Logf("edge: profile for %q denied: %v", req.SessionID, err)
			return &ProfileReply{Code: serve.CodeOf(err), Err: controlDetail(err)}
		}
		granted = g
	} else if granted == "" {
		granted = s.reg.DefaultID()
	}
	if _, ok := s.reg.Get(granted); !ok {
		return &ProfileReply{Code: serve.CodeProfileDenied,
			Err: fmt.Sprintf("security profile %q not served here", granted)}
	}
	if granted != req.Requested && req.Requested != "" {
		s.cfg.Logf("edge: session %q profile %q downgraded to %q per plan",
			req.SessionID, req.Requested, granted)
	}
	return &ProfileReply{Granted: granted}
}

// handleResume runs the session-resume sub-dialog inside the decode
// loop: verify the session/epoch/profile claim, challenge the client,
// check the possession proof (HMAC under the resume credential the
// session registered at Setup/Rekey), and on success attach the
// connection to the session — no key generation, no QKD withdrawal.
// Denials are typed replies; only protocol violations (a non-proof frame
// mid-dialog, undecodable payloads) return an error and kill the
// connection.
func (s *Server) handleResume(fw *frameWriter, vc v3conn, id uint64, req *ResumeRequest) error {
	deny := func(code serve.Code, detail string) error {
		if m := s.met; m != nil {
			m.resumeRejects.Inc()
		}
		s.cfg.Logf("edge: resume of %q denied: %s (%s)", req.SessionID, code, detail)
		rep := &ResumeReply{Code: code, Err: detail}
		fw.sendFrame(frameResumeReply, id, func(b []byte) []byte { return appendResumeReply(b, rep) })
		return nil
	}
	if s.draining.Load() {
		return deny(serve.CodeDraining, "server draining; re-dial elsewhere")
	}
	// Peek, not Get: the session earns its LRU refresh only after the
	// possession proof, so an unauthenticated probe cannot keep a session
	// alive.
	sess, ok := s.store.Peek(req.SessionID)
	if !ok {
		return deny(serve.CodeUnknownSession,
			fmt.Sprintf("no session %q to resume (expired or evicted)", req.SessionID))
	}
	sessProf := sess.Profile
	if sessProf == "" {
		sessProf = s.reg.DefaultID()
	}
	reqProf := req.Profile
	if reqProf == "" {
		reqProf = s.reg.DefaultID()
	}
	if reqProf != sessProf {
		return deny(serve.CodeResumeRejected,
			fmt.Sprintf("profile mismatch: session on %q, resume claims %q", sessProf, reqProf))
	}
	if epoch := sess.Epoch(); epoch != req.Epoch {
		return deny(serve.CodeResumeRejected,
			fmt.Sprintf("epoch mismatch: session at %d, resume claims %d — re-dial", epoch, req.Epoch))
	}
	auth := sess.ResumeAuth()
	if len(auth) == 0 {
		return deny(serve.CodeResumeRejected, "session registered without a resume credential")
	}
	var challenge [16]byte
	if _, err := rand.Read(challenge[:]); err != nil {
		return deny(serve.CodeInternal, "challenge generation failed")
	}
	ch := &ResumeChallenge{Challenge: challenge[:]}
	if fw.sendFrame(frameResumeChallenge, id, func(b []byte) []byte { return appendResumeChallenge(b, ch) }) != nil {
		return nil // connection already torn down
	}
	if idle := s.cfg.IdleTimeout; idle > 0 {
		vc.conn.SetReadDeadline(time.Now().Add(idle))
	}
	ftype, pid, payload, err := readFrameCRC(vc.br, vc.buf, vc.crc)
	if err != nil {
		return fmt.Errorf("resume proof read: %w", err)
	}
	if ftype != frameResumeProof || pid != id {
		return fmt.Errorf("%w: expected resume proof, got frame type %d", ErrBadFrame, ftype)
	}
	proof, err := decodeResumeProof(payload)
	if err != nil {
		return err
	}
	if !hmac.Equal(proof.MAC, resumeMAC(auth, challenge[:], sess.ID, req.Epoch)) {
		return deny(serve.CodeResumeRejected, "possession proof failed")
	}
	s.store.Get(sess.ID) // authenticated: refresh LRU position
	vc.cs.attach(sess)
	if m := s.met; m != nil {
		m.resumes.Inc()
	}
	s.cfg.Logf("edge: session %q resumed at epoch %d", sess.ID, req.Epoch)
	rep := &ResumeReply{OK: true, Epoch: req.Epoch}
	fw.sendFrame(frameResumeReply, id, func(b []byte) []byte { return appendResumeReply(b, rep) })
	return nil
}

func (s *Server) sendComputeReplyV3(fw *frameWriter, id uint64, rep *ComputeReply) {
	fw.sendFrame(frameComputeReply, id, func(b []byte) []byte { return appendComputeReply(b, rep) })
}

// handleComputeV3 mirrors handleCompute on the framed path: requests go
// through the bounded scheduler — onto the session profile's evaluator
// pool — and may be shed with CodeOverloaded. With observability on,
// the block's life is traced stage by stage (decode → queue_wait → eval
// → encode → write) and recorded once the reply frame reached the
// socket; spans also feed the quhe_stage_seconds histograms.
func (s *Server) handleComputeV3(fw *frameWriter, id uint64, req *ComputeRequest, decodeStart time.Time, cs *connState) {
	bt := s.met.newBlockTrace(req.SessionID, req.Block, id, decodeStart)
	bt.adopt(req.Trace)
	bt.span(stageIdxDecode, stageDecode, decodeStart, time.Since(decodeStart))
	sess, rt, pool, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		s.sendComputeReplyV3(fw, id, &ComputeReply{Code: code, Err: detail})
		return
	}
	var submitAt time.Time
	if bt != nil {
		submitAt = time.Now()
	}
	// The reply outlives this dispatch: hold an in-flight count until the
	// reply frame reached the socket, so Drain never closes the
	// connection under a queued compute.
	cs.active.Add(1)
	if err := s.sched.SubmitTo(pool, func(w *serve.Worker) {
		defer cs.active.Add(-1)
		if bt == nil {
			s.sendComputeReplyV3(fw, id, s.compute(rt, w, sess, req))
			return
		}
		waitEnd := time.Now()
		bt.span(stageIdxQueueWait, stageQueueWait, submitAt, waitEnd.Sub(submitAt))
		rep := s.compute(rt, w, sess, req)
		bt.span(stageIdxEval, stageEval, waitEnd, time.Since(waitEnd))
		encStart := time.Now()
		enc, wr, err := fw.sendFrameTimed(frameComputeReply, id, func(b []byte) []byte {
			return appendComputeReply(b, rep)
		})
		if err == nil {
			bt.span(stageIdxEncode, stageEncode, encStart, enc)
			bt.span(stageIdxWrite, stageWrite, encStart.Add(enc), wr)
		}
		bt.finish()
	}); err != nil {
		cs.active.Add(-1)
		if m := s.met; m != nil {
			m.shedQueueFull.Inc()
		}
		s.sendComputeReplyV3(fw, id, &ComputeReply{
			Code: serve.CodeOf(err),
			Err:  fmt.Sprintf("queue full (depth %d)", s.sched.Capacity()),
		})
	}
}

// handleRotKeys installs a session's Galois rotation keys for the matvec
// kernel, validating the upload at installation time: the connection must
// have negotiated matvec, the set's ring shape must match the session
// profile's context, and it must cover every rotation of the BSGS plan —
// so an incomplete set fails here, typed, instead of mid-evaluation.
func (s *Server) handleRotKeys(req *RotKeysRequest, vc v3conn) *RotKeysReply {
	if !vc.mv {
		return &RotKeysReply{Code: serve.CodeMatVecUnavailable,
			Err: "matvec not negotiated at hello"}
	}
	if req.Keys == nil || len(req.Keys.Keys) == 0 {
		return &RotKeysReply{Code: serve.CodeBadRequest, Err: "empty rotation key set"}
	}
	sess, rt, _, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		return &RotKeysReply{Code: code, Err: detail}
	}
	plan, err := s.matvecPlan(rt)
	if err != nil {
		return &RotKeysReply{Code: serve.CodeOf(err), Err: err.Error()}
	}
	n := rt.ctx.Params.N()
	digits := len(rt.ctx.Primes)
	qp := digits + 1
	for el, gk := range req.Keys.Keys {
		if len(gk.Parts) != digits || len(gk.Parts[0][0]) != qp || len(gk.Parts[0][0][0]) != n {
			return &RotKeysReply{Code: serve.CodeParamMismatch,
				Err: fmt.Sprintf("rotation key for element %d does not match profile %s's ring", el, rt.prof.ID)}
		}
	}
	if err := req.Keys.Covers(n, plan.Rotations()); err != nil {
		return &RotKeysReply{Code: serve.CodeBadRequest, Err: "rotation keys: " + err.Error()}
	}
	sess.SetRotKeys(req.Keys)
	s.cfg.Logf("edge: session %q installed %d rotation keys (matvec dim %d)",
		sess.ID, len(req.Keys.Keys), plan.Dim())
	return &RotKeysReply{OK: true}
}

// handleMatVecV3 serves one encrypted matrix–vector request: transcipher
// the block, then apply the model matrix with the hoisted BSGS kernel
// under the session's rotation keys. Mirrors handleComputeV3 (bounded
// scheduler, per-profile pool, sheddable) with one extra traced stage —
// matvec — separating kernel time from transcipher time.
func (s *Server) handleMatVecV3(fw *frameWriter, id uint64, req *ComputeRequest, decodeStart time.Time, vc v3conn) {
	reply := func(rep *ComputeReply) {
		fw.sendFrame(frameMatVecReply, id, func(b []byte) []byte { return appendComputeReply(b, rep) })
	}
	if !vc.mv {
		reply(&ComputeReply{Code: serve.CodeMatVecUnavailable,
			Err: "matvec not negotiated at hello"})
		return
	}
	bt := s.met.newBlockTrace(req.SessionID, req.Block, id, decodeStart)
	bt.adopt(req.Trace)
	bt.span(stageIdxDecode, stageDecode, decodeStart, time.Since(decodeStart))
	sess, rt, pool, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		reply(&ComputeReply{Code: code, Err: detail})
		return
	}
	var submitAt time.Time
	if bt != nil {
		submitAt = time.Now()
	}
	cs := vc.cs
	cs.active.Add(1)
	if err := s.sched.SubmitTo(pool, func(w *serve.Worker) {
		defer cs.active.Add(-1)
		if bt == nil {
			rep, _ := s.computeMatVec(rt, w, sess, req)
			reply(rep)
			return
		}
		waitEnd := time.Now()
		bt.span(stageIdxQueueWait, stageQueueWait, submitAt, waitEnd.Sub(submitAt))
		rep, mvDur := s.computeMatVec(rt, w, sess, req)
		total := time.Since(waitEnd)
		// The kernel runs at the tail of the eval: split the worker's time
		// into the transcipher span and the matvec span.
		bt.span(stageIdxEval, stageEval, waitEnd, total-mvDur)
		bt.span(stageIdxMatVec, stageMatVec, waitEnd.Add(total-mvDur), mvDur)
		encStart := time.Now()
		enc, wr, err := fw.sendFrameTimed(frameMatVecReply, id, func(b []byte) []byte {
			return appendComputeReply(b, rep)
		})
		if err == nil {
			bt.span(stageIdxEncode, stageEncode, encStart, enc)
			bt.span(stageIdxWrite, stageWrite, encStart.Add(enc), wr)
		}
		bt.finish()
	}); err != nil {
		cs.active.Add(-1)
		if m := s.met; m != nil {
			m.shedQueueFull.Inc()
		}
		reply(&ComputeReply{
			Code: serve.CodeOf(err),
			Err:  fmt.Sprintf("queue full (depth %d)", s.sched.Capacity()),
		})
	}
}

// lookupCompute resolves a compute request's session and its profile
// runtime before the job is queued, so the scheduler can route it to the
// right per-profile pool.
func (s *Server) lookupCompute(sessionID string) (*serve.Session, *profileRuntime, *serve.EvalPool, serve.Code, string) {
	if s.draining.Load() {
		return nil, nil, nil, serve.CodeDraining, "server draining; reconnect elsewhere"
	}
	sess, ok := s.store.Get(sessionID)
	if !ok {
		return nil, nil, nil, serve.CodeUnknownSession, fmt.Sprintf("unknown session %q", sessionID)
	}
	rt, pool, err := s.sessionRuntime(sess)
	if err != nil {
		return nil, nil, nil, serve.CodeInternal, "profile runtime: " + err.Error()
	}
	return sess, rt, pool, serve.CodeOK, ""
}

func (s *Server) handleSetup(req *SetupRequest, cs *connState) *SetupReply {
	if s.draining.Load() {
		return &SetupReply{Code: serve.CodeDraining, Err: "server draining; re-dial elsewhere"}
	}
	profID := req.Profile
	if profID == "" {
		// Gob peers and pre-profile v3 clients are pinned to the default
		// profile — the historical fixed parameter set.
		profID = s.reg.DefaultID()
	}
	prof, ok := s.reg.Get(profID)
	if !ok {
		return &SetupReply{Code: serve.CodeProfileDenied,
			Err: fmt.Sprintf("security profile %q not served here", profID)}
	}
	if req.LogN != prof.Params.LogN || req.Depth != prof.Params.Depth {
		return &SetupReply{
			Code: serve.CodeParamMismatch,
			Err: fmt.Sprintf("parameter mismatch: client logN=%d depth=%d, profile %s logN=%d depth=%d",
				req.LogN, req.Depth, profID, prof.Params.LogN, prof.Params.Depth),
		}
	}
	if req.SessionID == "" || req.PK == nil || req.RLK == nil || len(req.EncKey) != KeyLen {
		return &SetupReply{Err: "incomplete setup", Code: serve.CodeBadRequest}
	}
	ctl := s.cfg.Control
	if ctl != nil && req.Profile != "" {
		// Re-check the declared profile against the *current* plan: the
		// pre-Setup query is advisory, so without this a client could
		// skip (or ignore) the negotiation and register above the
		// route's planned λ. A grant that the plan has since moved below
		// is denied typed; the client renegotiates and redials.
		granted, err := ctl.NegotiateProfile(req.SessionID, req.Profile)
		if err != nil {
			return &SetupReply{Code: serve.CodeOf(err), Err: controlDetail(err)}
		}
		if granted != req.Profile {
			return &SetupReply{Code: serve.CodeProfileDenied,
				Err: fmt.Sprintf("profile %q not allowed on this route (plan wants %q); renegotiate",
					req.Profile, granted)}
		}
	}
	if ctl != nil {
		if err := ctl.AdmitSession(req.SessionID, s.store.Len()); err != nil {
			s.cfg.Logf("edge: session %q not admitted: %v", req.SessionID, err)
			return &SetupReply{Code: serve.CodeOf(err), Err: controlDetail(err)}
		}
	}
	// Materialize the profile's runtime before registering, so the first
	// compute never pays context construction on the hot path.
	rt, err := s.runtime(profID)
	if err != nil {
		return &SetupReply{Code: serve.CodeInternal, Err: "profile runtime: " + err.Error()}
	}
	// Validate the uploaded key against the profile's context and convert
	// it, in place, to the evaluation form every block will read; the
	// session never sees another form.
	if err := rt.cipher.InstallKey(req.EncKey); err != nil {
		return &SetupReply{Code: serve.CodeBadRequest, Err: "transciphering key: " + err.Error()}
	}
	sess := serve.NewSession(req.SessionID, profID, req.PK, req.RLK, req.EncKey, req.Nonce)
	if len(req.ResumeAuth) > 0 {
		sess.SetResumeAuth(req.ResumeAuth)
	}
	if err := s.store.Register(sess); err != nil {
		return &SetupReply{
			Code: serve.CodeOf(err),
			Err:  fmt.Sprintf("session %q already registered (rekey instead of re-registering)", req.SessionID),
		}
	}
	if cs != nil {
		cs.attach(sess)
	}
	if ctl != nil {
		ctl.ObserveSession(req.SessionID, profID)
	}
	s.cfg.Logf("edge: session %q registered on %s (%d resident)", req.SessionID, profID, s.store.Len())
	rep := &SetupReply{OK: true}
	if req.Profile != "" {
		// Echo the profile only to peers that speak it: pre-profile v3
		// clients keep the reply layout they expect.
		rep.Profile = profID
	}
	return rep
}

func (s *Server) handleRekey(req *RekeyRequest) *RekeyReply {
	sess, ok := s.store.Get(req.SessionID)
	if !ok {
		return &RekeyReply{Code: serve.CodeUnknownSession,
			Err: fmt.Sprintf("unknown session %q", req.SessionID)}
	}
	if len(req.EncKey) != KeyLen || len(req.Nonce) == 0 {
		return &RekeyReply{Code: serve.CodeBadRequest, Err: "incomplete rekey"}
	}
	rt, _, err := s.sessionRuntime(sess)
	if err != nil {
		return &RekeyReply{Code: serve.CodeInternal, Err: "profile runtime: " + err.Error()}
	}
	// Same install step as Setup: validated and converted before the swap,
	// so key, nonce and epoch still change together under the session lock.
	if err := rt.cipher.InstallKey(req.EncKey); err != nil {
		return &RekeyReply{Code: serve.CodeBadRequest, Err: "transciphering key: " + err.Error()}
	}
	epoch := sess.Rekey(req.EncKey, req.Nonce)
	// The resume credential is derived from the QKD key material, so it
	// rotates with it; a rekey without one (an older client) clears the
	// credential rather than leaving a stale epoch's secret valid.
	sess.SetResumeAuth(req.ResumeAuth)
	if m := s.met; m != nil {
		m.rekeys.Inc()
	}
	s.cfg.Logf("edge: session %q rekeyed to epoch %d", req.SessionID, epoch)
	return &RekeyReply{OK: true, Epoch: epoch}
}

// handleCompute serves one block. ID 0 (v1) runs synchronously on the
// session profile's pool — blocking checkout, never shed — preserving the
// v1 in-order contract. Nonzero IDs go through the bounded scheduler and
// may be shed with CodeOverloaded.
func (s *Server) handleCompute(cw *connWriter, id uint64, req *ComputeRequest, cs *connState) {
	sess, rt, pool, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		rep := &ComputeReply{Code: code, Err: detail}
		if id == 0 {
			cw.send(&replyEnvelope{Compute: rep})
		} else {
			cw.send(&replyEnvelope{ID: id, Compute: rep})
		}
		return
	}
	if id == 0 {
		var rep *ComputeReply
		_ = pool.Do(func(w *serve.Worker) error {
			rep = s.compute(rt, w, sess, req)
			return nil
		})
		cw.send(&replyEnvelope{Compute: rep})
		return
	}
	cs.active.Add(1)
	if err := s.sched.SubmitTo(pool, func(w *serve.Worker) {
		defer cs.active.Add(-1)
		cw.send(&replyEnvelope{ID: id, Compute: s.compute(rt, w, sess, req)})
	}); err != nil {
		cs.active.Add(-1)
		cw.send(&replyEnvelope{ID: id, Compute: &ComputeReply{
			Code: serve.CodeOf(err),
			Err:  fmt.Sprintf("queue full (depth %d)", s.sched.Capacity()),
		}})
	}
}

func (s *Server) compute(rt *profileRuntime, w *serve.Worker, sess *serve.Session, req *ComputeRequest) *ComputeReply {
	result, code, detail := s.computeBlock(rt, w, sess, req.Epoch, req.Block, req.Masked)
	if code != serve.CodeOK {
		return &ComputeReply{Code: code, Err: detail, RekeyNeeded: s.rekeyNeeded(sess)}
	}
	bits := float64(len(req.Masked) * 64)
	lambda := rt.prof.Lambda
	return &ComputeReply{
		Result:          result,
		RekeyNeeded:     s.rekeyNeeded(sess),
		ModeledTxDelay:  bits / s.cfg.UplinkRateBps,
		ModeledCmpDelay: (costmodel.EvalCycles(lambda) + costmodel.CmpCycles(lambda)) / s.cfg.ServerHz,
	}
}

// rekeyBudget resolves a session's per-key byte budget: the control
// plane's plan when one is attached (budgets derived from the paper's
// security-level utility at the session's profile λ), the static
// RekeyBytes constant otherwise.
func (s *Server) rekeyBudget(sess *serve.Session) int64 {
	if ctl := s.cfg.Control; ctl != nil {
		if b := ctl.RekeyBudget(sess.ID); b > 0 {
			return b
		}
	}
	return s.cfg.RekeyBytes
}

// computeBlock transciphers one block on an exclusively held worker of
// the session profile's pool, enforcing slot bounds, the key epoch,
// control-plane admission and the rekey byte budget. Every outcome —
// success or typed failure — lands in the per-code counter; eval
// latency lands in the session profile's histogram.
func (s *Server) computeBlock(rt *profileRuntime, w *serve.Worker, sess *serve.Session, reqEpoch uint64, block uint32, masked []float64) (result *ckks.Ciphertext, code serve.Code, detail string) {
	if m := s.met; m != nil {
		defer func() {
			m.codeCounter(code).Inc()
			m.observeOutcome(code)
		}()
	}
	if len(masked) > rt.cipher.Slots() {
		return nil, serve.CodeOversized,
			fmt.Sprintf("block of %d slots exceeds %d", len(masked), rt.cipher.Slots())
	}
	encKey, nonce, epoch := sess.Keys()
	if reqEpoch != 0 && reqEpoch != epoch {
		return nil, serve.CodeRekeyRequired,
			fmt.Sprintf("block masked under key epoch %d, session at %d", reqEpoch, epoch)
	}
	pending := int64(8 * len(masked))
	// One snapshot of the per-key byte usage serves the admission check,
	// the budget comparison and the error message, so they cannot
	// disagree when concurrent traffic moves the counter between reads.
	used := sess.BytesSinceRekey()
	ctl := s.cfg.Control
	if ctl != nil {
		if err := ctl.AdmitCompute(sess.ID, used, pending); err != nil {
			return nil, serve.CodeOf(err), controlDetail(err)
		}
	}
	if budget := s.rekeyBudget(sess); budget > 0 && used >= budget {
		return nil, serve.CodeRekeyRequired,
			fmt.Sprintf("key byte budget exhausted (%d of %d)", used, budget)
	}
	var start time.Time
	if ctl != nil || s.met != nil {
		start = time.Now()
	}
	scratch, _ := w.Scratch.(*transcipher.Scratch)
	result, err := rt.cipher.TranscipherAffineWith(
		scratch, w.Ev, sess.RLK, encKey, nonce, block, masked,
		s.cfg.Model.Weights, s.cfg.Model.Bias)
	if err != nil {
		if ctl != nil || s.met != nil {
			d := time.Since(start)
			if ctl != nil {
				ctl.ObserveCompute(sess.ID, pending, d, serve.CodeInternal)
			}
			if m := s.met; m != nil {
				m.observeEval(rt.prof.ID, d)
			}
		}
		return nil, serve.CodeInternal, "transcipher: " + err.Error()
	}
	sess.RecordBlock(pending)
	if ctl != nil || s.met != nil {
		d := time.Since(start)
		if ctl != nil {
			ctl.ObserveCompute(sess.ID, pending, d, serve.CodeOK)
		}
		if m := s.met; m != nil {
			m.observeEval(rt.prof.ID, d)
		}
	}
	return result, serve.CodeOK, ""
}

// computeMatVec wraps matvecBlock into a ComputeReply with the modeled
// delay decomposition, mirroring compute. Returns the kernel's own
// duration alongside so the caller can emit the matvec trace span.
func (s *Server) computeMatVec(rt *profileRuntime, w *serve.Worker, sess *serve.Session, req *ComputeRequest) (*ComputeReply, time.Duration) {
	result, mvDur, code, detail := s.matvecBlock(rt, w, sess, req.Epoch, req.Block, req.Masked)
	if code != serve.CodeOK {
		return &ComputeReply{Code: code, Err: detail, RekeyNeeded: s.rekeyNeeded(sess)}, mvDur
	}
	bits := float64(len(req.Masked) * 64)
	lambda := rt.prof.Lambda
	return &ComputeReply{
		Result:          result,
		RekeyNeeded:     s.rekeyNeeded(sess),
		ModeledTxDelay:  bits / s.cfg.UplinkRateBps,
		ModeledCmpDelay: (costmodel.EvalCycles(lambda) + costmodel.CmpCycles(lambda)) / s.cfg.ServerHz,
	}, mvDur
}

// matvecBlock is computeBlock's matrix–vector sibling: same admission
// pipeline (slot bounds, key epoch, control-plane admission, rekey byte
// budget), but the transcipher runs plain (no slot-wise affine) and the
// result feeds the hoisted BSGS kernel under the session's rotation keys.
// The transcipher output contract (level top−2, scale Δ²/p) matches the
// plan by construction, so the kernel consumes it directly. Returns the
// kernel's duration for the matvec trace span.
func (s *Server) matvecBlock(rt *profileRuntime, w *serve.Worker, sess *serve.Session, reqEpoch uint64, block uint32, masked []float64) (result *ckks.Ciphertext, mvDur time.Duration, code serve.Code, detail string) {
	if m := s.met; m != nil {
		defer func() {
			m.codeCounter(code).Inc()
			m.observeOutcome(code)
		}()
	}
	plan, err := s.matvecPlan(rt)
	if err != nil {
		return nil, 0, serve.CodeOf(err), err.Error()
	}
	gks := sess.RotKeys()
	if gks == nil {
		return nil, 0, serve.CodeMatVecUnavailable,
			"no rotation keys installed for session (upload them after setup)"
	}
	if len(masked) > rt.cipher.Slots() {
		return nil, 0, serve.CodeOversized,
			fmt.Sprintf("block of %d slots exceeds %d", len(masked), rt.cipher.Slots())
	}
	encKey, nonce, epoch := sess.Keys()
	if reqEpoch != 0 && reqEpoch != epoch {
		return nil, 0, serve.CodeRekeyRequired,
			fmt.Sprintf("block masked under key epoch %d, session at %d", reqEpoch, epoch)
	}
	pending := int64(8 * len(masked))
	used := sess.BytesSinceRekey()
	ctl := s.cfg.Control
	if ctl != nil {
		if err := ctl.AdmitCompute(sess.ID, used, pending); err != nil {
			return nil, 0, serve.CodeOf(err), controlDetail(err)
		}
	}
	if budget := s.rekeyBudget(sess); budget > 0 && used >= budget {
		return nil, 0, serve.CodeRekeyRequired,
			fmt.Sprintf("key byte budget exhausted (%d of %d)", used, budget)
	}
	var start time.Time
	if ctl != nil || s.met != nil {
		start = time.Now()
	}
	observe := func(code serve.Code) {
		if ctl == nil && s.met == nil {
			return
		}
		d := time.Since(start)
		if ctl != nil {
			ctl.ObserveCompute(sess.ID, pending, d, code)
		}
		if m := s.met; m != nil {
			m.observeEval(rt.prof.ID, d)
		}
	}
	scratch, _ := w.Scratch.(*transcipher.Scratch)
	// Plain transcipher: nil weights apply the identity, leaving the
	// decrypted block for the matrix kernel.
	ct, err := rt.cipher.TranscipherAffineWith(
		scratch, w.Ev, sess.RLK, encKey, nonce, block, masked, nil, nil)
	if err != nil {
		observe(serve.CodeInternal)
		return nil, 0, serve.CodeInternal, "transcipher: " + err.Error()
	}
	out := rt.ctx.NewCiphertext(plan.Level() - 1)
	mvStart := time.Now()
	if err := w.Ev.MatVecInto(plan, ct, gks, out); err != nil {
		mvDur = time.Since(mvStart)
		code = serve.CodeInternal
		if errors.Is(err, ckks.ErrNoGaloisKey) {
			code = serve.CodeMatVecUnavailable
		}
		observe(code)
		return nil, mvDur, code, "matvec: " + err.Error()
	}
	mvDur = time.Since(mvStart)
	sess.RecordBlock(pending)
	observe(serve.CodeOK)
	// Control planes that track rotation intensity get the block's
	// hoisted-rotation fan-out, so rotation-heavy traffic prices its
	// key-switch work in the planner's delay term.
	if ro, ok := ctl.(RotationObserver); ok {
		ro.ObserveRotations(sess.ID, len(plan.Rotations()))
	}
	return out, mvDur, serve.CodeOK, ""
}

// rekeyNeeded advises clients once ≥ 3/4 of the key byte budget is spent.
func (s *Server) rekeyNeeded(sess *serve.Session) bool {
	budget := s.rekeyBudget(sess)
	return budget > 0 && 4*sess.BytesSinceRekey() >= 3*budget
}

// handleBatch fans one BatchRequest's blocks out across the scheduler
// onto the session profile's pool, replying once every admitted item
// finishes. Items shed by a full queue fail individually with
// CodeOverloaded.
func (s *Server) handleBatch(cw *connWriter, id uint64, req *BatchRequest, cs *connState) {
	fail := func(code serve.Code, detail string) {
		cw.send(&replyEnvelope{ID: id, Batch: &BatchReply{Code: code, Err: detail}})
	}
	n := len(req.Blocks)
	if n == 0 || n != len(req.Masked) {
		fail(serve.CodeBadRequest, fmt.Sprintf("batch with %d blocks, %d payloads", n, len(req.Masked)))
		return
	}
	if n > MaxBatch {
		fail(serve.CodeBadRequest, fmt.Sprintf("batch of %d blocks exceeds %d", n, MaxBatch))
		return
	}
	sess, rt, pool, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		fail(code, detail)
		return
	}
	if code, detail := s.admitBatch(sess, req); code != serve.CodeOK {
		fail(code, detail)
		return
	}
	items := make([]BatchItem, n)
	cs.active.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cs.active.Add(-1)
		// The batch bounds its own in-flight items to the live queue
		// depth (which a control plane may have resized below the built
		// QueueDepth): earlier items finish before later ones are
		// submitted, so a batch larger than the queue never sheds itself
		// on an idle server. Submit still fails — and the item is shed —
		// under genuine cross-client contention. Running off the decode
		// loop keeps pipelined requests on the same connection flowing
		// meanwhile.
		window := make(chan struct{}, s.sched.Capacity())
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			window <- struct{}{}
			wg.Add(1)
			err := s.sched.SubmitTo(pool, func(w *serve.Worker) {
				defer func() { <-window; wg.Done() }()
				if cw.dead() {
					// The connection is gone: the reply can never be
					// delivered, so don't spend the worker computing it.
					items[i] = BatchItem{Code: serve.CodeConnClosed, Err: "connection closed"}
					return
				}
				result, code, detail := s.computeBlock(rt, w, sess, req.Epoch, req.Blocks[i], req.Masked[i])
				items[i] = BatchItem{Result: result, Code: code, Err: detail}
			})
			if err != nil {
				items[i] = BatchItem{Code: serve.CodeOf(err),
					Err: fmt.Sprintf("queue full (depth %d)", s.sched.Capacity())}
				<-window
				wg.Done()
			}
		}
		wg.Wait()
		var bits float64
		served := 0
		for i := range items {
			if items[i].Code == serve.CodeOK {
				bits += float64(len(req.Masked[i]) * 64)
				served++
			}
		}
		lambda := rt.prof.Lambda
		cw.send(&replyEnvelope{ID: id, Batch: &BatchReply{
			Items:           items,
			RekeyNeeded:     s.rekeyNeeded(sess),
			ModeledTxDelay:  bits / s.cfg.UplinkRateBps,
			ModeledCmpDelay: float64(served) * (costmodel.EvalCycles(lambda) + costmodel.CmpCycles(lambda)) / s.cfg.ServerHz,
		}})
	}()
}

// handleBatchV3 is the streaming batch path: instead of buffering the
// whole reply, each item is framed and flushed the moment its worker
// finishes (frameBatchItem, out of order), and a frameBatchDone trailer
// carries the aggregate modeled costs once every item has been answered.
// The frameWriter's per-connection mutex interleaves item frames with
// other replies at frame granularity, so one giant batch cannot starve
// pipelined requests on the same connection of the socket.
func (s *Server) handleBatchV3(fw *frameWriter, id uint64, req *BatchRequest, cs *connState) {
	fail := func(code serve.Code, detail string) {
		fw.sendFrame(frameBatchDone, id, func(b []byte) []byte {
			return appendBatchDone(b, &BatchReply{Code: code, Err: detail})
		})
	}
	n := len(req.Blocks)
	if n == 0 || n != len(req.Masked) {
		fail(serve.CodeBadRequest, fmt.Sprintf("batch with %d blocks, %d payloads", n, len(req.Masked)))
		return
	}
	if n > MaxBatch {
		fail(serve.CodeBadRequest, fmt.Sprintf("batch of %d blocks exceeds %d", n, MaxBatch))
		return
	}
	sess, rt, pool, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		fail(code, detail)
		return
	}
	if code, detail := s.admitBatch(sess, req); code != serve.CodeOK {
		fail(code, detail)
		return
	}
	cs.active.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cs.active.Add(-1)
		// Same admission contract as the buffered path — the batch bounds
		// its own in-flight items, so an idle server never sheds a batch
		// merely for being larger than the queue — but here a window
		// token is held from submission until the item's reply frame has
		// reached the socket. Eval workers only compute and hand the
		// finished item to the per-batch writer goroutine below (the
		// handoff channel never blocks: tokens cap its occupancy), so a
		// slow or stalled client reading item frames stalls this batch's
		// window, never an eval-pool worker.
		type emitItem struct {
			idx  int
			item BatchItem
		}
		// The streaming window is additionally capped at the live queue
		// depth, so a plan that shrank the scheduler cannot make a batch
		// shed itself on an idle server.
		win := s.cfg.BatchWindow
		if live := s.sched.Capacity(); live < win {
			win = live
		}
		tokens := make(chan struct{}, win)
		emit := make(chan emitItem, win)
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for e := range emit {
				e := e
				fw.sendFrame(frameBatchItem, id, func(b []byte) []byte {
					return appendBatchItem(b, e.idx, &e.item)
				})
				<-tokens
			}
		}()
		var wg sync.WaitGroup
		var servedBits, served atomic.Int64
		for i := 0; i < n; i++ {
			i := i
			tokens <- struct{}{}
			wg.Add(1)
			err := s.sched.SubmitTo(pool, func(w *serve.Worker) {
				defer wg.Done()
				if fw.dead() {
					// The connection is gone (peer hung up, or the server
					// is tearing it down at Close): every remaining item
					// frame will fail, so skip the compute instead of
					// burning eval workers — and pinning shutdown — on
					// results nobody can receive. The emit/token plumbing
					// still runs so the batch drains normally.
					emit <- emitItem{idx: i, item: BatchItem{Code: serve.CodeConnClosed, Err: "connection closed"}}
					return
				}
				result, code, detail := s.computeBlock(rt, w, sess, req.Epoch, req.Blocks[i], req.Masked[i])
				if code == serve.CodeOK {
					served.Add(1)
					servedBits.Add(int64(len(req.Masked[i]) * 64))
				}
				emit <- emitItem{idx: i, item: BatchItem{Result: result, Code: code, Err: detail}}
			})
			if err != nil {
				wg.Done()
				emit <- emitItem{idx: i, item: BatchItem{Code: serve.CodeOf(err),
					Err: fmt.Sprintf("queue full (depth %d)", s.sched.Capacity())}}
			}
		}
		wg.Wait()
		close(emit)
		<-writerDone
		lambda := rt.prof.Lambda
		fw.sendFrame(frameBatchDone, id, func(b []byte) []byte {
			return appendBatchDone(b, &BatchReply{
				RekeyNeeded:     s.rekeyNeeded(sess),
				ModeledTxDelay:  float64(servedBits.Load()) / s.cfg.UplinkRateBps,
				ModeledCmpDelay: float64(served.Load()) * (costmodel.EvalCycles(lambda) + costmodel.CmpCycles(lambda)) / s.cfg.ServerHz,
			})
		})
	}()
}

// admitBatch runs the control plane's batch-level admission: the whole
// request's projected byte consumption is checked once before fan-out
// (per-item admission still applies inside computeBlock).
func (s *Server) admitBatch(sess *serve.Session, req *BatchRequest) (serve.Code, string) {
	ctl := s.cfg.Control
	if ctl == nil {
		return serve.CodeOK, ""
	}
	var pending int64
	for _, m := range req.Masked {
		pending += int64(8 * len(m))
	}
	if err := ctl.AdmitCompute(sess.ID, sess.BytesSinceRekey(), pending); err != nil {
		return serve.CodeOf(err), controlDetail(err)
	}
	return serve.CodeOK, ""
}
