package edge

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/chacha20"
	"quhe/internal/he/ckks"
	"quhe/internal/he/profile"
	"quhe/internal/he/ring"
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
	// disables the matvec capability (Setup replies report dimension 0).
	Matrix [][]float64
	// MatrixBias is added slot-wise to the matvec output; nil for none.
	MatrixBias []float64
}

// ServerConfig parameterizes the edge server.
type ServerConfig struct {
	// Model is the inference applied to every block.
	Model Model
	// Logf sinks diagnostics; nil discards them.
	Logf func(format string, args ...interface{})
	// Workers sizes each security profile's evaluator pool (and the
	// scheduler parallelism). Default GOMAXPROCS. Workers are built
	// lazily, so profiles without traffic cost nothing; evaluator memory
	// is bounded by Workers × live profiles, never by the session count.
	Workers int
	// QueueDepth bounds the scheduler backlog; requests that find it full
	// are shed with serve.CodeOverloaded. Default 4×Workers. With a
	// Control plane attached this is the built ceiling — the plan may
	// shrink the live depth below it. The live depth is also each
	// connection's window of in-flight op frames (see connState), so one
	// connection never overflows the queue by itself: shedding is what
	// contention between connections gets.
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
	// Control, when non-nil, closes the loop with a control plane
	// (internal/control): Setup and compute admission are delegated to
	// it, profile negotiation follows its per-route λ plan, rekey budgets
	// come from its plan, and per-block telemetry is published back. Nil
	// preserves the static admit-until-evicted behavior exactly.
	Control Controller
	// DebugAddr, when non-empty, binds the observability debug plane
	// (obs.ServeDebug) on that address: /metrics in the Prometheus text
	// format, /debug/pprof/*, /debug/plan (the controller's live plan),
	// /debug/trace (chrome://tracing span dump), /debug/slo (objectives,
	// attainment and burn rates) and /debug/keyledger (the QKD key-flow
	// ledger of the Control plane's key centre). Off by default; bind
	// loopback ("127.0.0.1:0") unless the scrape network is trusted — the
	// plane serves operational internals without authentication.
	DebugAddr string
	// Obs is the metrics registry the server publishes into. Nil creates
	// a private registry; pass a shared one to combine server and
	// control-plane series on a single /metrics page.
	Obs *obs.Registry
	// IdleTimeout bounds how long a connection may sit with no inbound
	// frames and no in-flight work before the server closes it: half-dead
	// peers release their sessions back to resumable state instead of
	// pinning them. A connection waiting on its own replies (queued or
	// unwritten op replies) is not idle. The timeout also bounds a
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
}

// profileRuntime is one security profile's serving substrate: the shared
// CKKS context, the transciphering cipher over it and the evaluator pool
// its blocks run on (workers materialize on first checkout, so a profile
// without traffic costs no evaluator). Runtimes are built lazily per
// profile and cached for the server's lifetime.
type profileRuntime struct {
	prof   *profile.Profile
	ctx    *ckks.Context
	cipher *transcipher.Cipher
	pool   *serve.EvalPool

	// The matvec plan — the model matrix's diagonals encoded at the
	// transcipher output level and scale — is built once per profile on
	// first use and shared by every worker (plans are read-only during
	// evaluation). mvErr latches a build failure so each request fails
	// typed instead of retrying the doomed encode. mvRots is the key
	// switches one matvec block runs (MatVecPlan.KeySwitches: the baby
	// rotations plus the giant steps), what it adds to the block's price;
	// it is not the key count, since every giant step reuses one key.
	mvOnce sync.Once
	mvPlan *ckks.MatVecPlan
	mvRots int
	mvErr  error
	// mvKeys lists the Galois elements a session's rotation-key upload
	// must cover on this profile's ring: one per rotation of
	// ckks.KeyRotations of the plan's rotations, which are
	// ckks.BSGSRotations of the model dimension (baby steps 1…n1−1 and the
	// giant step n1) — known without encoding the plan.
	mvKeys []uint64
}

// Server is the QuHE edge server: it accepts client sessions — each on a
// negotiated security profile — transciphers uploads and computes on them
// homomorphically. Safe for concurrent clients; see the package comment
// for the serving architecture.
type Server struct {
	cfg ServerConfig
	reg *profile.Registry

	// runtimes maps profile ID → *profileRuntime, the one per-profile
	// registry. Reads on the compute hot path are lock-free (sync.Map);
	// rtMu only serializes first-use builds.
	rtMu     sync.Mutex
	runtimes sync.Map

	listener net.Listener

	store *serve.Store
	sched *serve.Scheduler

	// met is the observability instrument set, always on; debug the
	// opt-in HTTP debug plane (nil unless DebugAddr set).
	met   *serverObs
	debug *obs.DebugServer

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	// conns tracks live connections so Close can tear them down: without
	// it, a peer that stalls mid-read (reply writer blocked on its
	// socket) would pin Close in wg.Wait forever. Each connection's state
	// carries its in-flight work count and its attached sessions
	// (detached into the resume window on teardown).
	conns map[net.Conn]*connState

	// reapStop ends the resume-window reaper (nil when ResumeWindow is 0).
	reapStop chan struct{}
}

// connState is the server's per-connection bookkeeping. active counts
// requests whose replies have not reached the socket yet: each admitted
// op frame, from admission until the reply writer is done with its reply,
// plus the frame a synchronous handler is answering. It is the occupancy
// of the connection's window: the decode loop admits an op frame only while
// fewer than the scheduler's live capacity are in flight, so a peer that
// outruns its window — or stops reading its replies — backs up its own
// socket and nothing else. attached holds the sessions bound to the
// connection (by Setup or a granted resume); on teardown each is
// detached into the resume window.
type connState struct {
	active atomic.Int64
	// freed wakes the decode loop after the reply writer released a
	// window slot (the loop re-reads active, so one token is enough);
	// gone is closed by the connection's teardown.
	freed chan struct{}
	gone  chan struct{}
	// replies is the worker → writer hand-off. It holds the scheduler's
	// built capacity, which no window exceeds, so a worker's send never
	// blocks: workers evaluate and encode, only the writer touches the
	// socket.
	replies chan opReply

	mu       sync.Mutex
	attached map[string]*serve.Session

	// rotKeys holds each session's rotation-key upload in progress on this
	// connection: the keys accepted so far, installed on the session as one
	// set once they cover its matvec plan. Only the decode loop touches it,
	// and nothing else refers to it, so a partial set dies with the
	// connection and a resume starts the upload over.
	rotKeys map[*serve.Session]*ckks.GaloisKeySet
}

// opReply is one finished op reply on its way to the connection's reply
// writer: the encoded frame in a pooled buffer (nil when there is nothing
// to send — the connection was gone before the block ran, or the frame
// could not be built), and for an evaluated block its trace and the
// instant encoding ended, where the write span starts.
type opReply struct {
	frame   *[]byte
	bt      *blockTrace
	encoded time.Time
}

// admit blocks the decode loop until the connection's window has a free
// slot and takes it; false when the connection was torn down first. Only
// the decode loop admits, so the check and the increment cannot race.
func (cs *connState) admit(window func() int) bool {
	for int(cs.active.Load()) >= window() {
		select {
		case <-cs.freed:
		case <-cs.gone:
			return false
		}
	}
	cs.active.Add(1)
	return true
}

// release returns a window slot and wakes the decode loop if it waits.
func (cs *connState) release() {
	cs.active.Add(-1)
	select {
	case cs.freed <- struct{}{}:
	default:
	}
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
	s := &Server{
		cfg:   cfg,
		reg:   profile.Default(),
		store: serve.NewStore(cfg.MaxSessions),
	}
	// The scheduler is built over the default runtime's pool and the
	// instruments hook the scheduler, so that runtime is built first and
	// published once both exist.
	def, err := s.newRuntime(s.reg.DefaultID())
	if err != nil {
		return nil, fmt.Errorf("edge: default profile: %w", err)
	}
	s.sched = serve.NewScheduler(def.pool, cfg.QueueDepth)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newServerObs(reg, s)
	s.publishRuntime(def)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.sched.Close()
		return nil, fmt.Errorf("edge: listen: %w", err)
	}
	s.listener = ln
	s.conns = make(map[net.Conn]*connState)
	if cfg.Control != nil {
		cfg.Control.BindServe(s.sched, s.store)
	}
	if cfg.DebugAddr != "" {
		dcfg := obs.DebugConfig{
			Registry: s.met.reg,
			Tracer:   s.met.tracer,
			SLO:      s.met.sloSnapshot,
		}
		// The Controller interface stays minimal; controllers that can
		// render their plan or their key centre's ledger opt into
		// /debug/plan and /debug/keyledger by implementing PlanJSON and
		// LedgerJSON. The server never sees QKD withdrawals itself.
		if pj, ok := cfg.Control.(interface{ PlanJSON() any }); ok {
			dcfg.Plan = pj.PlanJSON
		}
		if lj, ok := cfg.Control.(interface{ LedgerJSON() any }); ok {
			dcfg.KeyLedger = lj.LedgerJSON
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
				s.met.resumeExpired.Add(int64(n))
				s.cfg.Logf("edge: resume window expired for %d sessions", n)
			}
		}
	}
}

// runtime returns the profile's serving substrate, building and
// publishing it on first use. Already-built profiles resolve without
// taking a lock (the per-request hot path); rtMu only serializes
// first-use builds.
func (s *Server) runtime(profileID string) (*profileRuntime, error) {
	if rt, ok := s.runtimes.Load(profileID); ok {
		return rt.(*profileRuntime), nil
	}
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	if rt, ok := s.runtimes.Load(profileID); ok {
		return rt.(*profileRuntime), nil
	}
	rt, err := s.newRuntime(profileID)
	if err != nil {
		return nil, err
	}
	s.publishRuntime(rt)
	return rt, nil
}

// newRuntime builds a profile's runtime. Context construction is shared
// process-wide through the profile registry, so only the cipher binding
// and the (lazily materialized) evaluator pool are per server.
func (s *Server) newRuntime(profileID string) (*profileRuntime, error) {
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
	pool := serve.NewEvalPool(ctx, s.cfg.Workers, 1, func(int) any { return cipher.NewScratch() })
	pool.SetProfileLabel(profileID)
	rt := &profileRuntime{prof: prof, ctx: ctx, cipher: cipher, pool: pool}
	if dim := len(s.cfg.Model.Matrix); dim > 0 {
		n := ctx.Params.N()
		for _, rot := range ckks.KeyRotations(n, ckks.BSGSRotations(dim)) {
			rt.mvKeys = append(rt.mvKeys, ring.GaloisElement(rot, n))
		}
	}
	return rt, nil
}

// publishRuntime makes a built runtime the profile's one: its pool gauges
// appear with it, so profiles without traffic cost no series.
func (s *Server) publishRuntime(rt *profileRuntime) {
	s.met.registerPoolGauges(rt.prof.ID, rt.pool)
	s.runtimes.Store(rt.prof.ID, rt)
}

// matvecPlan returns the profile's BSGS matrix–vector plan, building it
// on first use. The plan targets the transcipher output contract — level
// top−transcipher.Levels at scale Δ²/p (Δ the top prime, p the one
// below) — so a MatVec request transciphers its block and feeds the
// result straight into the kernel with no level or scale adjustment. The
// registry guarantees every profile is deep enough for the kernel's level
// (profile.NewRegistry). Built with a throwaway evaluator; the plan
// itself is immutable and shared across workers.
func (s *Server) matvecPlan(rt *profileRuntime) (*ckks.MatVecPlan, error) {
	rt.mvOnce.Do(func() {
		if len(s.cfg.Model.Matrix) == 0 {
			rt.mvErr = fmt.Errorf("%w: no model matrix configured", serve.ErrMatVecUnavailable)
			return
		}
		top := rt.ctx.MaxLevel()
		delta := float64(rt.ctx.Primes[top])
		scale := delta * delta / float64(rt.ctx.Primes[top-1])
		ev := ckks.NewEvaluator(rt.ctx, 1)
		plan, err := ev.NewMatVecPlan(s.cfg.Model.Matrix, s.cfg.Model.MatrixBias, top-transcipher.Levels, scale)
		if err != nil {
			rt.mvErr = fmt.Errorf("%w: plan for profile %s: %v", serve.ErrMatVecUnavailable, rt.prof.ID, err)
			return
		}
		rt.mvPlan, rt.mvRots = plan, plan.KeySwitches()
	})
	return rt.mvPlan, rt.mvErr
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Tracer returns the server's block tracer.
func (s *Server) Tracer() *obs.Tracer { return s.met.tracer }

// DebugAddr returns the debug plane's bound address, "" when the plane
// was not configured.
func (s *Server) DebugAddr() string {
	if s.debug == nil {
		return ""
	}
	return s.debug.Addr()
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
	err := s.listener.Close()
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
	cs := &connState{
		freed:   make(chan struct{}, 1),
		gone:    make(chan struct{}),
		replies: make(chan opReply, s.sched.MaxCapacity()),
	}
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

// serveConn drives one connection: the hello exchange, then a decode
// loop dispatching request frames. Replies go through one frameWriter per
// connection: the decode loop answers the synchronous requests itself,
// and op replies reach the socket through the connection's reply writer
// as soon as each worker finishes. The writers and the read loop share
// one close-once teardown, so a writer-side failure and the loop's exit
// cannot double-close the connection.
func (s *Server) serveConn(conn net.Conn) {
	cs := s.trackConn(conn)
	if cs == nil {
		return
	}
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			conn.Close()
			close(cs.gone)
			s.forgetConn(conn)
		})
	}
	defer teardown()
	s.met.conns.Add(1)
	defer s.met.conns.Add(-1)
	br := bufio.NewReaderSize(conn, wireBufSize)
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	// A peer that does not open with a hello in the current frame version
	// — a retired gob client, an older framed client, a port scanner — is
	// closed before it can register a session or reach a worker. There is
	// nothing to negotiate: the version names the whole wire format.
	if !s.awaitFrame(conn, br, cs) {
		return
	}
	if ftype, _, payload, err := readFrame(br, buf); err != nil || ftype != frameHello || len(payload) != 0 {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.met.protoMismatches.Inc()
			s.cfg.Logf("edge: closing peer that did not open with a v%d hello (type %d, err %v)", frameVersion, ftype, err)
		}
		return
	}
	fw := newFrameWriter(conn, teardown, s.cfg.Logf)
	fw.countSend = func(n int) {
		s.met.framesOut.Inc()
		s.met.bytesOut.Add(int64(n))
	}
	if fw.sendFrame(frameHello, 0, nil) != nil {
		return
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeReplies(fw, cs)
	}()
	defer func() {
		// Stop the reply writer. With the connection closed its writes fail
		// at once and blocks still queued are skipped, so the in-flight ops
		// drain promptly; once none is left no worker can send again (only
		// this loop admits), and the hand-off can close.
		teardown()
		for cs.active.Load() > 0 {
			<-cs.freed
		}
		close(cs.replies)
		<-writerDone
	}()
	sc := &sessionConn{conn: conn, br: br, buf: buf, cs: cs, fw: fw}
	for {
		if !s.awaitFrame(conn, br, cs) {
			return
		}
		ftype, id, payload, err := readFrame(br, buf)
		if err != nil {
			if errors.Is(err, ErrFrameChecksum) {
				s.met.checksumFails.Inc()
			}
			// EOF is a normal goodbye; net.ErrClosed is our own Close
			// tearing the connection down.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("edge: decode: %v", err)
			}
			return
		}
		s.met.framesIn.Inc()
		s.met.bytesIn.Add(int64(frameHeaderLen + len(payload) + crcTrailerLen))
		if err := s.dispatch(ftype, id, payload, sc); err != nil {
			// A payload that fails to decode is a protocol violation, not
			// a request we can answer: kill the connection. net.ErrClosed
			// is the teardown reaching an op frame that waited for its
			// window slot, serve.ErrConnClosed a write the frame writer
			// already logged.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, serve.ErrConnClosed) {
				s.cfg.Logf("edge: payload (type %d): %v", ftype, err)
			}
			return
		}
	}
}

// awaitFrame enforces the idle deadline before a blocking read: it peeks
// for the next byte under a read deadline of IdleTimeout, extending the
// wait while the connection has in-flight work (a client waiting on its
// own replies is not idle). A true idle expiry closes the connection —
// the session detaches into the resume window. With IdleTimeout unset it
// is a no-op and the subsequent read blocks indefinitely. Returns false
// when the connection should be torn down (the caller's read would fail
// anyway).
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
				s.met.idleTimeouts.Inc()
				s.cfg.Logf("edge: idle timeout (%s) — releasing connection", idle)
			}
			return false
		}
		// Bytes are arriving: give the whole frame a fresh budget.
		conn.SetReadDeadline(time.Now().Add(idle))
		return true
	}
}

// sessionConn is the connection as the session table's rows see it: its
// state, its frame writer, and its read side for a row that runs a
// sub-dialog inside the decode loop (the resume handshake).
type sessionConn struct {
	conn net.Conn
	br   *bufio.Reader
	buf  *[]byte
	cs   *connState
	fw   *frameWriter
}

// dispatch serves one request frame: an op frame goes down the op
// pipeline, any other request to its session-table row, whose reply it
// sends. An error is a protocol violation and ends the connection.
func (s *Server) dispatch(ftype byte, id uint64, payload []byte, sc *sessionConn) error {
	cs := sc.cs
	if o := opFor(ftype); o != nil {
		// The window wait comes before the block exists for the server: a
		// peer ahead of its window is waiting on its own socket, which is
		// not time any stage of the block spent.
		if !cs.admit(s.sched.Capacity) {
			return net.ErrClosed
		}
		// The decode timestamp anchors the block's trace: the earliest
		// point the server saw this request's bytes as a block.
		decodeStart := time.Now()
		req, err := decodeComputeRequest(payload)
		if err != nil {
			cs.release()
			return err
		}
		s.handleOp(o, id, req, decodeStart, cs)
		return nil
	}
	handle := sessionTable[ftype]
	if handle == nil {
		return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, ftype)
	}
	cs.active.Add(1)
	defer cs.active.Add(-1)
	rep, err := handle(s, sc, id, payload)
	if err != nil {
		return err
	}
	sc.fw.sendFrame(frameSessionReply, id, func(b []byte) []byte { return appendSessionReply(b, rep) })
	return nil
}

// sessionRow is one row of the session table: it serves one request frame
// that drives a session's lifecycle rather than a block. It decodes the
// payload — a decode failure is a protocol violation — then validates
// before it installs anything, and returns the reply, a refusal included.
type sessionRow func(s *Server, sc *sessionConn, id uint64, payload []byte) (*SessionReply, error)

// sessionTable is the op table's counterpart for session lifecycle: the
// profile query, Setup and Rekey (QKD key delivery), rotation-key upload
// and resume. Every row answers with one SessionReply on
// frameSessionReply, sent by dispatch.
var sessionTable = map[byte]sessionRow{
	frameProfile: rowOf(decodeProfileRequest, (*Server).handleProfile),
	frameSetup:   rowOf(decodeSetupRequest, (*Server).handleSetup),
	frameRekey:   rowOf(decodeRekeyRequest, (*Server).handleRekey),
	frameRotKeys: rowOf(decodeRotKeysRequest, (*Server).handleRotKeys),
	frameResume:  rowOf(decodeResumeRequest, (*Server).handleResume),
}

// rowOf builds a session-table row from a request decoder and its handler.
func rowOf[R any](decode func([]byte) (*R, error), handle func(*Server, *sessionConn, uint64, *R) (*SessionReply, error)) sessionRow {
	return func(s *Server, sc *sessionConn, id uint64, payload []byte) (*SessionReply, error) {
		req, err := decode(payload)
		if err != nil {
			return nil, err
		}
		return handle(s, sc, id, req)
	}
}

// refuse is every session row's refusal: a typed reply, with nothing
// installed.
func refuse(code serve.Code, detail string) (*SessionReply, error) {
	return &SessionReply{Code: code, Err: detail}, nil
}

// handleProfile resolves a pre-Setup profile query: the control plane's
// per-route λ plan steers empty requests and may downgrade or deny
// concrete ones; without a controller the server grants any profile its
// registry knows (empty resolving to the default).
func (s *Server) handleProfile(_ *sessionConn, _ uint64, req *ProfileRequest) (*SessionReply, error) {
	granted := req.Requested
	if ctl := s.cfg.Control; ctl != nil {
		g, err := ctl.NegotiateProfile(req.SessionID, req.Requested)
		if err != nil {
			s.cfg.Logf("edge: profile for %q denied: %v", req.SessionID, err)
			return refuse(serve.CodeOf(err), controlDetail(err))
		}
		granted = g
	} else if granted == "" {
		granted = s.reg.DefaultID()
	}
	if _, ok := s.reg.Get(granted); !ok {
		return refuse(serve.CodeProfileDenied, fmt.Sprintf("security profile %q not served here", granted))
	}
	if granted != req.Requested && req.Requested != "" {
		s.cfg.Logf("edge: session %q profile %q downgraded to %q per plan",
			req.SessionID, req.Requested, granted)
	}
	return &SessionReply{Profile: granted}, nil
}

// handleResume runs the session-resume sub-dialog inside the decode
// loop: verify the session/epoch/profile claim, challenge the client,
// check the possession proof (HMAC under the resume credential the
// session registered at Setup/Rekey), and on success attach the
// connection to the session — no key generation, no QKD withdrawal.
// Denials are typed replies; only protocol violations (a non-proof frame
// mid-dialog, undecodable payloads) return an error and kill the
// connection.
func (s *Server) handleResume(sc *sessionConn, id uint64, req *ResumeRequest) (*SessionReply, error) {
	deny := func(code serve.Code, detail string) (*SessionReply, error) {
		s.met.resumeRejects.Inc()
		s.cfg.Logf("edge: resume of %q denied: %s (%s)", req.SessionID, code, detail)
		return refuse(code, detail)
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
	if err := sc.fw.sendFrame(frameResumeChallenge, id, func(b []byte) []byte { return appendResumeChallenge(b, ch) }); err != nil {
		return nil, err // connection already torn down
	}
	if idle := s.cfg.IdleTimeout; idle > 0 {
		sc.conn.SetReadDeadline(time.Now().Add(idle))
	}
	ftype, pid, payload, err := readFrame(sc.br, sc.buf)
	if err != nil {
		return nil, fmt.Errorf("resume proof read: %w", err)
	}
	if ftype != frameResumeProof || pid != id {
		return nil, fmt.Errorf("%w: expected resume proof, got frame type %d", ErrBadFrame, ftype)
	}
	proof, err := decodeResumeProof(payload)
	if err != nil {
		return nil, err
	}
	if !hmac.Equal(proof.MAC, resumeMAC(auth, challenge[:], sess.ID, req.Epoch)) {
		return deny(serve.CodeResumeRejected, "possession proof failed")
	}
	s.store.Get(sess.ID) // authenticated: refresh LRU position
	sc.cs.attach(sess)
	s.met.resumes.Inc()
	s.cfg.Logf("edge: session %q resumed at epoch %d", sess.ID, req.Epoch)
	return &SessionReply{Epoch: req.Epoch}, nil
}

// lookupCompute resolves a compute request's session and its profile
// runtime before the job is queued, so the scheduler can route it to the
// profile's pool.
func (s *Server) lookupCompute(sessionID string) (*serve.Session, *profileRuntime, serve.Code, string) {
	sess, ok := s.store.Get(sessionID)
	if !ok {
		return nil, nil, serve.CodeUnknownSession, fmt.Sprintf("unknown session %q", sessionID)
	}
	rt, err := s.runtime(sess.Profile)
	if err != nil {
		return nil, nil, serve.CodeInternal, "profile runtime: " + err.Error()
	}
	return sess, rt, serve.CodeOK, ""
}

func (s *Server) handleSetup(sc *sessionConn, _ uint64, req *SetupRequest) (*SessionReply, error) {
	profID := req.Profile
	if profID == "" {
		profID = s.reg.DefaultID()
	}
	prof, ok := s.reg.Get(profID)
	if !ok {
		return refuse(serve.CodeProfileDenied, fmt.Sprintf("security profile %q not served here", profID))
	}
	if req.LogN != prof.Params.LogN || req.Depth != prof.Params.Depth {
		return refuse(serve.CodeParamMismatch,
			fmt.Sprintf("parameter mismatch: client logN=%d depth=%d, profile %s logN=%d depth=%d",
				req.LogN, req.Depth, profID, prof.Params.LogN, prof.Params.Depth))
	}
	if req.SessionID == "" || req.RLK == nil || len(req.EncKey) != KeyLen {
		return refuse(serve.CodeBadRequest, "incomplete setup")
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
			return refuse(serve.CodeOf(err), controlDetail(err))
		}
		if granted != req.Profile {
			return refuse(serve.CodeProfileDenied,
				fmt.Sprintf("profile %q not allowed on this route (plan wants %q); renegotiate", req.Profile, granted))
		}
	}
	if ctl != nil {
		if err := ctl.AdmitSession(req.SessionID, s.store.Len()); err != nil {
			s.cfg.Logf("edge: session %q not admitted: %v", req.SessionID, err)
			return refuse(serve.CodeOf(err), controlDetail(err))
		}
	}
	// Materialize the profile's runtime before registering, so the first
	// compute never pays context construction on the hot path.
	rt, err := s.runtime(profID)
	if err != nil {
		return refuse(serve.CodeInternal, "profile runtime: "+err.Error())
	}
	// Everything a worker will index or feed to a lazy-reduction kernel is
	// validated here, before the session exists: the relinearization key
	// against the profile's ring, then the transciphering key — which
	// InstallKey also converts, in place, to the evaluation form every
	// block will read; the session never sees another form — and the nonce
	// those blocks will be unmasked under.
	if detail := checkNonce(req.Nonce); detail != "" {
		return refuse(serve.CodeBadRequest, detail)
	}
	if err := rt.ctx.CheckSwitchingKey(req.RLK); err != nil {
		return refuse(keyCode(err), "relinearization key: "+err.Error())
	}
	if err := rt.cipher.InstallKey(req.EncKey); err != nil {
		return refuse(serve.CodeBadRequest, "transciphering key: "+err.Error())
	}
	sess := serve.NewSession(req.SessionID, profID, nil, req.RLK, req.EncKey, req.Nonce)
	if len(req.ResumeAuth) > 0 {
		sess.SetResumeAuth(req.ResumeAuth)
	}
	if err := s.store.Register(sess); err != nil {
		return refuse(serve.CodeOf(err),
			fmt.Sprintf("session %q already registered (rekey instead of re-registering)", req.SessionID))
	}
	sc.cs.attach(sess)
	if ctl != nil {
		ctl.ObserveSession(req.SessionID, profID)
	}
	s.cfg.Logf("edge: session %q registered on %s (%d resident)", req.SessionID, profID, s.store.Len())
	// MatVecDim tells the client which rotation keys the matvec kernel
	// needs (ckks.BSGSRotations of this dimension); zero = no matrix here.
	return &SessionReply{Profile: profID, MatVecDim: len(s.cfg.Model.Matrix)}, nil
}

// checkNonce holds a Setup or Rekey nonce to the cipher's exact length: the
// keystream expansion copies it into a fixed array, so a short one (the
// empty one included) would run zero-padded and a long one truncated —
// either way under a nonce the client did not mask with.
func checkNonce(nonce []byte) (detail string) {
	if len(nonce) != chacha20.NonceSize {
		return fmt.Sprintf("nonce is %d bytes, want %d", len(nonce), chacha20.NonceSize)
	}
	return ""
}

// keyCode types a ckks.Context.CheckSwitchingKey failure for the wire: a
// key built for another ring is a parameter mismatch, anything else
// (unreduced residues) a bad request.
func keyCode(err error) serve.Code {
	if errors.Is(err, ckks.ErrKeyShape) {
		return serve.CodeParamMismatch
	}
	return serve.CodeBadRequest
}

func (s *Server) handleRekey(_ *sessionConn, _ uint64, req *RekeyRequest) (*SessionReply, error) {
	sess, ok := s.store.Get(req.SessionID)
	if !ok {
		return refuse(serve.CodeUnknownSession, fmt.Sprintf("unknown session %q", req.SessionID))
	}
	if len(req.EncKey) != KeyLen {
		return refuse(serve.CodeBadRequest, "incomplete rekey")
	}
	if detail := checkNonce(req.Nonce); detail != "" {
		return refuse(serve.CodeBadRequest, detail)
	}
	rt, err := s.runtime(sess.Profile)
	if err != nil {
		return refuse(serve.CodeInternal, "profile runtime: "+err.Error())
	}
	// Same install step as Setup: validated and converted before the swap,
	// so key, nonce and epoch still change together under the session lock.
	if err := rt.cipher.InstallKey(req.EncKey); err != nil {
		return refuse(serve.CodeBadRequest, "transciphering key: "+err.Error())
	}
	epoch := sess.Rekey(req.EncKey, req.Nonce)
	// The resume credential is derived from the QKD key material, so it
	// rotates with it; a rekey without one clears the credential rather
	// than leaving a stale epoch's secret valid.
	sess.SetResumeAuth(req.ResumeAuth)
	s.met.rekeys.Inc()
	s.cfg.Logf("edge: session %q rekeyed to epoch %d", req.SessionID, epoch)
	return &SessionReply{Epoch: epoch}, nil
}

// rotKeysInstalled ends the refusal a rotation key meets when its session
// already holds its set. Client.EnableMatVec takes exactly this refusal as
// success: the set it is uploading is the one in place.
const rotKeysInstalled = "the session's rotation keys are already installed"

// handleRotKeys takes one rotation key of a session's upload, validating
// it before it is kept: it must fit the session profile's ring with
// reduced residues, be for a rotation of the BSGS plan, and be the first
// key for its rotation; and the session must not have its set already.
// Accepted keys collect on the connection, and the set is installed on
// the session the moment it covers the plan — so a worker only ever sees
// a complete set, and a bad key fails here, typed, instead of
// mid-evaluation.
func (s *Server) handleRotKeys(sc *sessionConn, _ uint64, req *RotKeysRequest) (*SessionReply, error) {
	sess, rt, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		return refuse(code, detail)
	}
	dim := len(s.cfg.Model.Matrix)
	if dim == 0 {
		return refuse(serve.CodeMatVecUnavailable, "no model matrix configured")
	}
	gk := req.Key
	if sess.RotKeys() != nil {
		return refuse(serve.CodeBadRequest, fmt.Sprintf("rotation key %d: %s", gk.Rot, rotKeysInstalled))
	}
	if err := rt.ctx.CheckSwitchingKey(&gk.SwitchingKey); err != nil {
		return refuse(keyCode(err), fmt.Sprintf("rotation key %d: %v", gk.Rot, err))
	}
	if !slices.Contains(rt.mvKeys, gk.El) {
		return refuse(serve.CodeBadRequest,
			fmt.Sprintf("rotation key %d: not a rotation of the dimension-%d matvec plan", gk.Rot, dim))
	}
	cs := sc.cs
	set := cs.rotKeys[sess]
	if set == nil {
		set = &ckks.GaloisKeySet{Keys: make(map[uint64]*ckks.GaloisKey, len(rt.mvKeys))}
		if cs.rotKeys == nil {
			cs.rotKeys = make(map[*serve.Session]*ckks.GaloisKeySet, 1)
		}
		cs.rotKeys[sess] = set
	}
	if set.Key(gk.El) != nil {
		return refuse(serve.CodeBadRequest, fmt.Sprintf("rotation key %d: uploaded twice", gk.Rot))
	}
	set.Keys[gk.El] = gk
	if len(set.Keys) == len(rt.mvKeys) {
		delete(cs.rotKeys, sess)
		sess.SetRotKeys(set)
		s.cfg.Logf("edge: session %q installed %d rotation keys (matvec dim %d)",
			sess.ID, len(set.Keys), dim)
	}
	return &SessionReply{}, nil
}

// op is one row of the per-block op table: everything that differs
// between the operations a session can run on a masked block. The
// pipeline around a row — decode → lookup → submit → [gates → transcipher
// → kernel → accounting] → encode → write — is handleOp and evalBlock,
// shared by every row, so a new op is a kernel plus a row.
type op struct {
	// req is the op's request frame type. It carries the Compute request
	// codec, and the op replies on frameComputeReply like every op.
	req byte
	// affine makes the transcipher apply the model's slot-wise weights and
	// bias while it decrypts; otherwise it applies the identity and leaves
	// the plain block for the kernel.
	affine bool
	// ready, when set, refuses a block before admission spends key budget
	// or a transcipher on it: the session or the server lacks what the
	// kernel needs.
	ready func(s *Server, rt *profileRuntime, sess *serve.Session) (serve.Code, string)
	// kernel, when set, evaluates on the transcipher's output with the
	// worker's evaluator (nil: the transcipher's output is the result).
	// Its time is traced as its own span, named stage, split off the tail
	// of the eval span. It also reports the hoisted Galois rotations it ran,
	// which price the block (profile.BlockCycles) for the reply and the
	// control plane.
	kernel   func(s *Server, rt *profileRuntime, w *serve.Worker, sess *serve.Session, ct *ckks.Ciphertext) (out *ckks.Ciphertext, rotations int, code serve.Code, detail string)
	stage    string
	stageIdx int
}

var (
	// opCompute is the slot-wise affine layer, fused into the transcipher.
	opCompute = op{req: frameCompute, affine: true}
	// opMatVec transciphers plain, then applies the packed model matrix
	// with the hoisted BSGS kernel under the session's rotation keys.
	opMatVec = op{req: frameMatVec,
		ready: (*Server).matvecReady, kernel: (*Server).matvecKernel,
		stage: stageMatVec, stageIdx: stageIdxMatVec}

	ops = [...]*op{&opCompute, &opMatVec}
)

// opFor returns the table row served by a request frame type, nil when
// the frame is not a per-block op.
func opFor(ftype byte) *op {
	for _, o := range ops {
		if o.req == ftype {
			return o
		}
	}
	return nil
}

// refuseBlock answers a per-block request that never reached a worker,
// through the same hand-off as a served one: the decode loop holds the
// request's window slot, so the send cannot block.
func (s *Server) refuseBlock(cs *connState, id uint64, code serve.Code, detail string) {
	rep := ComputeReply{Code: code, Err: detail}
	cs.replies <- opReply{frame: s.encodeReply(id, &rep)}
}

// encodeReply builds an op's reply frame in a pooled buffer, which the
// reply writer returns to the pool; nil when the frame cannot be built.
func (s *Server) encodeReply(id uint64, rep *ComputeReply) *[]byte {
	pb := getFrameBuf()
	b, err := finishFrame(appendComputeReply(beginFrame((*pb)[:0], frameComputeReply, id), rep))
	if err != nil {
		s.cfg.Logf("edge: frame build: %v", err)
		putFrameBuf(pb)
		return nil
	}
	*pb = b
	return pb
}

// handleOp serves one per-block request of any op: the block goes through
// the bounded scheduler — onto the session profile's evaluator pool — and
// may be shed with CodeOverloaded. The worker evaluates and encodes, then
// hands the frame to the connection's reply writer; it never touches the
// socket, so a peer that stops reading cannot hold it. The block's life
// is traced stage by stage (decode → queue_wait → eval → [kernel stage] →
// encode → write) and recorded once the reply frame reached the socket;
// spans also feed the quhe_stage_seconds histograms. Every path ends in
// exactly one hand-off, which is what releases the request's window slot.
func (s *Server) handleOp(o *op, id uint64, req *ComputeRequest, decodeStart time.Time, cs *connState) {
	bt := s.met.newBlockTrace(req.SessionID, req.Block, id, decodeStart)
	bt.adopt(req.Trace)
	bt.span(stageIdxDecode, stageDecode, decodeStart, time.Since(decodeStart))
	sess, rt, code, detail := s.lookupCompute(req.SessionID)
	if code != serve.CodeOK {
		s.refuseBlock(cs, id, code, detail)
		return
	}
	submitAt := time.Now()
	if err := s.sched.SubmitTo(rt.pool, func(w *serve.Worker) {
		select {
		case <-cs.gone:
			// The connection is gone (peer hung up, or the server is
			// tearing it down at Close): nobody can receive the result, so
			// skip the evaluation instead of burning a worker — and
			// pinning shutdown — on it.
			cs.replies <- opReply{}
			return
		default:
		}
		waitEnd := time.Now()
		bt.span(stageIdxQueueWait, stageQueueWait, submitAt, waitEnd.Sub(submitAt))
		result, rots, kdur, code, detail := s.evalBlock(o, rt, w, sess, req.Epoch, req.Block, req.Masked)
		rep := ComputeReply{Result: result, Code: code, Err: detail, RekeyNeeded: s.rekeyNeeded(sess)}
		if code == serve.CodeOK {
			rep.ModeledTxDelay = float64(len(req.Masked)*64) / modeledUplinkBps
			rep.ModeledCmpDelay = rt.prof.BlockCycles(float64(rots)) / profile.RefHz
		}
		// The kernel runs at the tail of the eval: split the worker's
		// time into the transcipher span and the kernel's.
		total := time.Since(waitEnd)
		evalEnd := waitEnd.Add(total)
		bt.span(stageIdxEval, stageEval, waitEnd, total-kdur)
		if o.kernel != nil {
			bt.span(o.stageIdx, o.stage, evalEnd.Add(-kdur), kdur)
		}
		frame := s.encodeReply(id, &rep)
		encoded := time.Now()
		bt.span(stageIdxEncode, stageEncode, evalEnd, encoded.Sub(evalEnd))
		cs.replies <- opReply{frame: frame, bt: bt, encoded: encoded}
	}); err != nil {
		s.met.shedQueueFull.Inc()
		s.refuseBlock(cs, id, serve.CodeOf(err), fmt.Sprintf("queue full (depth %d)", s.sched.Capacity()))
	}
}

// writeReplies is the connection's reply writer, the one goroutine that
// puts op replies on the socket. A stalled peer blocks it, the window
// then fills behind it and the decode loop stops admitting: the stall
// stays on this connection. The write span starts where encoding ended,
// so the hand-off wait is in the ledger and the stage spans still tile
// the block's total. Runs until serveConn closes the hand-off.
func (s *Server) writeReplies(fw *frameWriter, cs *connState) {
	for r := range cs.replies {
		sent := false
		if r.frame != nil {
			sent = fw.send(*r.frame) == nil
			putFrameBuf(r.frame)
		}
		if r.bt != nil {
			if sent {
				r.bt.span(stageIdxWrite, stageWrite, r.encoded, time.Since(r.encoded))
			}
			r.bt.finish()
		}
		cs.release()
	}
}

// modeledUplinkBps is the client upload rate ModeledTxDelay is reported
// at. ModeledCmpDelay is the session profile's registry price of the
// blocks served (profile.BlockCycles) at profile.RefHz — the number the
// control plane's λ choice plans with.
const modeledUplinkBps = 5e6

// evalBlock runs one block of op o on an exclusively held worker of the
// session profile's pool: the op's readiness check, then the gates every
// op shares — slot bound, key epoch, control-plane admission, rekey byte
// budget — then the transcipher and the op's kernel. Every outcome —
// success or typed failure — lands in the per-code counter; eval latency
// lands in the session profile's histogram and, with the block's bytes,
// in the control plane, which is also told the rotations the kernel ran.
// rots is that count, for the caller's modeled delay; kdur is the kernel's
// share of the time, for its trace split.
func (s *Server) evalBlock(o *op, rt *profileRuntime, w *serve.Worker, sess *serve.Session, reqEpoch uint64, block uint32, masked []float64) (result *ckks.Ciphertext, rots int, kdur time.Duration, code serve.Code, detail string) {
	defer func() {
		s.met.codeCounter(code).Inc()
		s.met.observeOutcome(code)
	}()
	if o.ready != nil {
		if code, detail := o.ready(s, rt, sess); code != serve.CodeOK {
			return nil, 0, 0, code, detail
		}
	}
	if len(masked) > rt.cipher.Slots() {
		return nil, 0, 0, serve.CodeOversized,
			fmt.Sprintf("block of %d slots exceeds %d", len(masked), rt.cipher.Slots())
	}
	encKey, nonce, epoch := sess.Keys()
	if reqEpoch != 0 && reqEpoch != epoch {
		return nil, 0, 0, serve.CodeRekeyRequired,
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
			return nil, 0, 0, serve.CodeOf(err), controlDetail(err)
		}
	}
	if budget := s.rekeyBudget(sess); budget > 0 && used >= budget {
		return nil, 0, 0, serve.CodeRekeyRequired,
			fmt.Sprintf("key byte budget exhausted (%d of %d)", used, budget)
	}
	start := time.Now()
	var weights, bias []float64
	if o.affine {
		weights, bias = s.cfg.Model.Weights, s.cfg.Model.Bias
	}
	scratch, _ := w.Scratch.(*transcipher.Scratch)
	result, err := rt.cipher.TranscipherAffineWith(
		scratch, w.Ev, sess.RLK, encKey, nonce, block, masked, weights, bias)
	switch {
	case err != nil:
		result, code, detail = nil, serve.CodeInternal, "transcipher: "+err.Error()
	case o.kernel != nil:
		kstart := time.Now()
		result, rots, code, detail = o.kernel(s, rt, w, sess, result)
		kdur = time.Since(kstart)
	}
	if code == serve.CodeOK {
		sess.RecordBlock(pending)
	}
	d := time.Since(start)
	if ctl != nil {
		ctl.ObserveCompute(sess.ID, pending, d, code)
		// Control planes that track rotation intensity price the
		// block's key-switch work in the planner's delay term.
		if rots > 0 {
			if ro, ok := ctl.(RotationObserver); ok {
				ro.ObserveRotations(sess.ID, rots)
			}
		}
	}
	s.met.observeEval(rt.prof.ID, d)
	return result, rots, kdur, code, detail
}

// matvecReady is opMatVec's readiness check: the server holds a matrix
// this profile can plan, and the session uploaded its rotation keys.
func (s *Server) matvecReady(rt *profileRuntime, sess *serve.Session) (serve.Code, string) {
	if _, err := s.matvecPlan(rt); err != nil {
		return serve.CodeOf(err), err.Error()
	}
	if sess.RotKeys() == nil {
		return serve.CodeMatVecUnavailable,
			"no rotation keys installed for session (upload them after setup)"
	}
	return serve.CodeOK, ""
}

// matvecKernel applies the packed model matrix to a plain-transciphered
// block. The transcipher output contract (level top−transcipher.Levels,
// scale Δ²/p) matches the plan by construction, so the kernel consumes it
// directly and leaves its result ckks.MatVecLevels lower.
func (s *Server) matvecKernel(rt *profileRuntime, w *serve.Worker, sess *serve.Session, ct *ckks.Ciphertext) (*ckks.Ciphertext, int, serve.Code, string) {
	plan, err := s.matvecPlan(rt)
	if err != nil {
		return nil, 0, serve.CodeOf(err), err.Error()
	}
	out := rt.ctx.NewCiphertext(plan.Level() - ckks.MatVecLevels)
	if err := w.Ev.MatVecInto(plan, ct, sess.RotKeys(), out); err != nil {
		code := serve.CodeInternal
		if errors.Is(err, ckks.ErrNoGaloisKey) {
			code = serve.CodeMatVecUnavailable
		}
		return nil, 0, code, "matvec: " + err.Error()
	}
	return out, rt.mvRots, serve.CodeOK, ""
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

// rekeyNeeded advises clients once ≥ 3/4 of the key byte budget is spent.
func (s *Server) rekeyNeeded(sess *serve.Session) bool {
	budget := s.rekeyBudget(sess)
	return budget > 0 && 4*sess.BytesSinceRekey() >= 3*budget
}
