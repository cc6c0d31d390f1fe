package edge

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
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
// slot-wise affine layer out[i] = Weights[i]·x[i] + Bias[i] serves every
// Compute; an optional square Matrix additionally enables the encrypted
// matrix–vector path out = Matrix·x + MatrixBias, evaluated with the
// hoisted BSGS rotation kernel on MatVec requests. Both replies leave at
// level 0, so NewServer refuses a model whose output could outgrow it
// (ErrModelHeadroom).
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

// ErrModelHeadroom reports a model whose replies could wrap. Every reply
// leaves at level 0 — one 60-bit limb at a ≈50-bit scale — so a slot
// decodes only while |m| < 2⁹ (ckks linalg.go, "Headroom"), and NewServer
// refuses a model whose output bound, at inputs |x| ≤ inputBound,
// exceeds replyBound.
var ErrModelHeadroom = errors.New("edge: model output exceeds the level-0 reply headroom")

const (
	// inputBound is the |x| every slot of a Compute or MatVec input is
	// assumed to stay within when a model's output is bounded: the range
	// the benchmark's payloads and the examples' inputs are drawn from.
	inputBound = 1.0
	// replyBound is the largest |Re| + |Im| a reply slot may reach. That
	// sum bounds the slot's complex modulus, which bounds every
	// coefficient of the plaintext the client decrypts, a constant
	// vector's one coefficient included. It is 2⁸, the magnitude
	// TestLevelZeroHeadroom decodes at level 0 on every served chain: half
	// the 2⁹ a 60-bit limb holds at a 50-bit scale, the other half left to
	// the noise.
	replyBound = 1 << 8
)

// blockIm bounds the imaginary part of a slot the transcipher leaves at
// weight w. The slot holds Im(z²) = (x² − y²)/2 with x = w·(B·k) and
// y = C·k (transcipher package doc), and |B·k|, |C·k| ≤ 1 for key
// coordinates in [−1, 1] by the coefficients' normalization, so
// |Im| ≤ max(w², 1)/2. It grows with w², not w, and its mean is not zero:
// under one weight on every slot it lands in the constant coefficient
// at full size.
func blockIm(w float64) float64 { return math.Max(w*w, 1) / 2 }

// checkHeadroom bounds the served model's reply slots, real and imaginary
// parts, at inputs |x| ≤ inputBound by replyBound: the affine layer slot
// by slot, |w_i|·|x| + |b_i| + blockIm(w_i) (w = 1 and b = 0 past the
// ends of Weights and Bias); the matrix row by row over a block
// transciphered at w = 1, Σ_j |M_ij|·(|x| + blockIm(1)) + |b_i|, since a
// real matrix maps real and imaginary parts alike. Either past the bound,
// or not a number, is ErrModelHeadroom.
func checkHeadroom(m Model) error {
	slots := max(len(m.Weights), len(m.Bias), 1)
	for i := 0; i < slots; i++ {
		w, b := 1.0, 0.0
		if i < len(m.Weights) {
			w = m.Weights[i]
		}
		if i < len(m.Bias) {
			b = m.Bias[i]
		}
		if bound := math.Abs(w)*inputBound + math.Abs(b) + blockIm(w); !(bound <= replyBound) {
			return fmt.Errorf("%w: affine slot %d reaches %g at |x| ≤ %g, bound %d", ErrModelHeadroom, i, bound, inputBound, replyBound)
		}
	}
	for i, row := range m.Matrix {
		bound := 0.0
		for _, v := range row {
			bound += math.Abs(v) * (inputBound + blockIm(1))
		}
		if i < len(m.MatrixBias) {
			bound += math.Abs(m.MatrixBias[i])
		}
		if !(bound <= replyBound) {
			return fmt.Errorf("%w: matrix row %d reaches %g at |x| ≤ %g, bound %d", ErrModelHeadroom, i, bound, inputBound, replyBound)
		}
	}
	return nil
}

// ServerConfig parameterizes the edge server. It has no observability
// options: every server builds its own metrics registry and tracer,
// instruments its whole serving path on them, and hands the registry to
// its Control plane (Controller.BindServe); DebugAddr only decides whether
// they are reachable over HTTP.
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
	// are shed with serve.CodeOverloaded. Default 4×Workers. It is also
	// each connection's window of in-flight op frames (see connState), so
	// one connection never overflows the queue by itself: shedding is what
	// contention between connections gets. A Control plane leaves it as
	// it is.
	QueueDepth int
	// MaxSessions caps resident sessions; registering past the cap
	// evicts the least recently used. Default 1024; negative = unbounded.
	// The cap is fixed at construction: a Control plane's admission
	// capacity refuses new Setups and never moves it.
	MaxSessions int
	// RekeyBytes is the per-key byte budget: once a session has served
	// this many masked bytes under one key, computes fail with
	// serve.CodeRekeyRequired until the client rekeys. 0 disables
	// enforcement. It applies only without a Control plane: with one
	// attached, the plan's per-session budgets (derived from the paper's
	// security-level utility) are the only budget source.
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
	// /debug/trace (chrome://tracing span dump) and /debug/keyledger (the
	// QKD key-flow ledger of the Control plane's key centre). Off by
	// default; bind loopback ("127.0.0.1:0") unless the scrape network is
	// trusted — the plane serves operational internals without
	// authentication.
	DebugAddr string
	// IdleTimeout bounds how long a connection may sit after its Setup
	// with no inbound frames and no in-flight work before the server
	// closes it: a half-dead peer's session ends with its connection
	// instead of pinning the session table. A connection waiting on its
	// own replies (queued or unwritten op replies) is not idle. The
	// timeout also bounds a single frame's read, so it must comfortably
	// exceed the worst-case frame transfer time (Rekey frames run to
	// megabytes). The opening has a fixed bound of its own. 0 disables.
	IdleTimeout time.Duration
}

// profileRuntime is one security profile's serving substrate: the shared
// CKKS context, the transciphering cipher over it, the evaluator pool
// its blocks run on (workers materialize on first checkout, so a profile
// without traffic costs no evaluator) and the eval latency histogram its
// blocks land in. Runtimes are built lazily per profile and cached for
// the server's lifetime.
type profileRuntime struct {
	prof     *profile.Profile
	ctx      *ckks.Context
	cipher   *transcipher.Cipher
	pool     *serve.EvalPool
	evalHist *obs.Histogram // set by publishRuntime

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
	// carries its in-flight work count and the session it registered,
	// which its teardown removes from the store.
	conns map[net.Conn]*connState
}

// connState is the server's per-connection bookkeeping. active counts
// requests whose replies have not reached the socket yet: each admitted
// op frame, from admission until the reply writer is done with its reply,
// plus the frame a synchronous handler is answering. It is the occupancy
// of the connection's window: the decode loop admits an op frame only while
// fewer than the scheduler's capacity are in flight, so a peer that
// outruns its window — or stops reading its replies — backs up its own
// socket and nothing else.
type connState struct {
	active atomic.Int64
	// freed wakes the decode loop after the reply writer released a
	// window slot (the loop re-reads active, so one token is enough);
	// gone is closed by the connection's teardown.
	freed chan struct{}
	gone  chan struct{}
	// replies is the worker → writer hand-off. It holds the scheduler's
	// capacity, the window's size, so a worker's send never blocks:
	// workers evaluate and encode, only the writer touches the socket.
	replies chan opReply
	// fw sends the connection's frames: the decode loop's session replies
	// and the reply writer's op replies.
	fw *frameWriter

	// grantID and grant are the last granted profile query's session ID
	// and profile, what Setup registers. sess is the session it registered,
	// nil until then: the one session its frames act on, and the one its
	// teardown removes from the store. rotKeys is its rotation-key upload
	// in progress, installed on the session as one set once it covers the
	// matvec plan. Only the decode loop touches these, so a partial set
	// dies with the connection.
	grantID string
	grant   *profile.Profile
	sess    *serve.Session
	rotKeys *ckks.GaloisKeySet
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

// admit blocks the decode loop until fewer than window requests are in
// flight and takes a slot; false when the connection was torn down first.
// Only the decode loop admits, so the check and the increment cannot race.
func (cs *connState) admit(window int) bool {
	for int(cs.active.Load()) >= window {
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

// NewServer builds a server over the profile registry and starts
// listening on addr (use "127.0.0.1:0" for tests). The default profile's
// runtime is built eagerly so configuration errors fail here, not on the
// first Setup.
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if err := checkHeadroom(cfg.Model); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
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
	s.met = newServerObs(s)
	s.publishRuntime(def)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.sched.Close()
		return nil, fmt.Errorf("edge: listen: %w", err)
	}
	s.listener = ln
	s.conns = make(map[net.Conn]*connState)
	if cfg.Control != nil {
		cfg.Control.BindServe(s.store, s.met.reg)
	}
	if cfg.DebugAddr != "" {
		dcfg := obs.DebugConfig{
			Registry: s.met.reg,
			Tracer:   s.met.tracer,
		}
		if cfg.Control != nil {
			dcfg.Plan = cfg.Control.PlanJSON
			dcfg.KeyLedger = cfg.Control.LedgerJSON
		}
		ds, err := obs.ServeDebug(cfg.DebugAddr, dcfg)
		if err != nil {
			ln.Close()
			s.sched.Close()
			return nil, fmt.Errorf("edge: debug plane: %w", err)
		}
		s.debug = ds
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
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
// and eval histogram appear with it, so profiles without traffic cost no
// series.
func (s *Server) publishRuntime(rt *profileRuntime) {
	rt.evalHist = s.met.registerProfile(rt.prof.ID, rt.pool)
	s.runtimes.Store(rt.prof.ID, rt)
}

// matvecPlan returns the profile's BSGS matrix–vector plan, building it
// on first use. The plan targets the transcipher output contract — level
// top−transcipher.Levels at scale Δ²/p (Δ the top prime, p the one
// below) — so a MatVec request transciphers its block and feeds the
// result straight into the kernel with no level or scale adjustment.
// That level is the context's GaloisLevel, which the profile derives from
// the same contract, so the plan and the rotation keys it reads agree by
// construction. The registry guarantees every profile is deep enough for
// the kernel's level (profile.NewRegistry). Built with a throwaway
// evaluator; the plan itself is immutable and shared across workers.
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
		plan, err := ev.NewMatVecPlan(s.cfg.Model.Matrix, s.cfg.Model.MatrixBias, rt.ctx.GaloisLevel(), scale)
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
		replies: make(chan opReply, s.sched.Capacity()),
	}
	s.conns[conn] = cs
	return cs
}

func (s *Server) forgetConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
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

// openingTimeout bounds a connection's opening: from accept until a Setup
// registers its session, every frame is read against one deadline this
// far out. The opening spans the client's key generation, which the idle
// deadline must not count, and without a bound a peer that connects and
// never sends Setup would hold a connection and its buffers for good. The
// slowest opening the edge tests run under -race took 0.62 s on a 2-core
// box; the bound leaves 16x that for a loaded host or a slow link.
const openingTimeout = 10 * time.Second

// serveConn drives one connection through its two phases: the opening
// (open), then a decode loop dispatching the frames of the session the
// opening registered. Replies go through one frameWriter per connection:
// the opening's and the synchronous handlers' session replies, and op
// replies, which reach the socket through the connection's reply writer as
// soon as each worker finishes. The writers and the read loop share one
// close-once teardown, so a writer-side failure and the loop's exit cannot
// double-close the connection.
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
	// The session ends with its connection. Removal is by identity, so a
	// session evicted and registered again under its ID, on another
	// connection, stays.
	defer func() {
		if cs.sess != nil {
			s.store.Remove(cs.sess)
		}
	}()
	br := bufio.NewReaderSize(conn, wireBufSize)
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	cs.fw = newFrameWriter(conn, teardown, s.cfg.Logf)
	cs.fw.countSend = func(n int) {
		s.met.framesOut.Inc()
		s.met.bytesOut.Add(int64(n))
	}
	if !s.open(conn, br, buf, cs) {
		return
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeReplies(cs)
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
	for {
		if !s.awaitFrame(conn, br, cs) {
			return
		}
		ftype, id, payload, err := s.recv(br, buf)
		if err != nil {
			// EOF is a normal goodbye; net.ErrClosed is our own Close
			// tearing the connection down.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("edge: decode: %v", err)
			}
			return
		}
		if err := s.dispatch(ftype, id, payload, cs); err != nil {
			// A payload that fails to decode, or an opening frame after the
			// opening, is a protocol violation, not a request we can answer:
			// kill the connection. net.ErrClosed is the teardown reaching an
			// op frame that waited for its window slot, serve.ErrConnClosed a
			// write the frame writer already logged.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, serve.ErrConnClosed) {
				s.cfg.Logf("edge: payload (type %d): %v", ftype, err)
			}
			return
		}
	}
}

// recv reads the connection's next frame and counts it.
func (s *Server) recv(br *bufio.Reader, buf *[]byte) (byte, uint64, []byte, error) {
	ftype, id, payload, err := readFrame(br, buf)
	if err != nil {
		if errors.Is(err, ErrFrameChecksum) {
			s.met.checksumFails.Inc()
		}
		return 0, 0, nil, err
	}
	s.met.framesIn.Inc()
	s.met.bytesIn.Add(int64(frameHeaderLen + len(payload) + crcTrailerLen))
	return ftype, id, payload, nil
}

// open runs the connection's opening: profile queries and Setups, each
// read and answered here, in order, before the reply writer exists, all
// under one openingTimeout deadline. A refused Setup installs nothing and
// the opening goes on; it ends, true, when a Setup registers the
// connection's session. Anything else ends the connection: a read error,
// the deadline, a payload that does not decode, a session frame or a
// Setup without a grant. A peer whose first frame is not a profile query
// of this version — a retired gob client, an older framed client, a port
// scanner — is counted as a protocol mismatch and closed without a reply,
// before it can register a session or reach a worker: the version names
// the whole wire format, so there is nothing to negotiate.
func (s *Server) open(conn net.Conn, br *bufio.Reader, buf *[]byte, cs *connState) bool {
	conn.SetReadDeadline(time.Now().Add(openingTimeout))
	for first := true; cs.sess == nil; first = false {
		ftype, id, payload, err := s.recv(br, buf)
		var rep *SessionReply
		if err == nil {
			switch ftype {
			case frameProfile:
				rep, err = s.handleProfile(cs, payload)
			case frameSetup:
				rep, err = s.handleSetup(cs, payload)
			default:
				err = fmt.Errorf("%w: frame type %d before Setup", ErrBadFrame, ftype)
			}
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.met.idleTimeouts.Inc()
			} else if first && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.met.protoMismatches.Inc()
			}
			s.cfg.Logf("edge: closing connection in its opening (frame type %d): %v", ftype, err)
			return false
		}
		if cs.fw.sendFrame(frameSessionReply, id, func(b []byte) []byte { return appendSessionReply(b, rep) }) != nil {
			return false
		}
	}
	conn.SetReadDeadline(time.Time{})
	return true
}

// awaitFrame enforces the idle deadline before a blocking read: it peeks
// for the next byte under a read deadline of IdleTimeout, extending the
// wait while the connection has in-flight work (a client waiting on its
// own replies is not idle). A true idle expiry closes the connection, and
// its session ends with it. With IdleTimeout unset it is a no-op and the
// subsequent read blocks indefinitely. Returns false when the connection
// should be torn down (the caller's read would fail anyway).
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

// dispatch serves one session frame: an op frame goes down the op
// pipeline, a Rekey or a rotation key to its handler, whose reply it
// sends. An error is a protocol violation and ends the connection; an
// opening frame here is one.
func (s *Server) dispatch(ftype byte, id uint64, payload []byte, cs *connState) error {
	if o := opFor(ftype); o != nil {
		// The window wait comes before the block exists for the server: a
		// peer ahead of its window is waiting on its own socket, which is
		// not time any stage of the block spent.
		if !cs.admit(s.sched.Capacity()) {
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
	cs.active.Add(1)
	defer cs.active.Add(-1)
	var rep *SessionReply
	var err error
	switch ftype {
	case frameRekey:
		rep, err = s.handleRekey(cs, payload)
	case frameRotKeys:
		rep, err = s.handleRotKeys(cs, payload)
	default:
		err = fmt.Errorf("%w: frame type %d after Setup", ErrBadFrame, ftype)
	}
	if err != nil {
		return err
	}
	cs.fw.sendFrame(frameSessionReply, id, func(b []byte) []byte { return appendSessionReply(b, rep) })
	return nil
}

// refuse is every session handler's refusal: a typed reply, with nothing
// installed.
func refuse(code serve.Code, detail string) (*SessionReply, error) {
	return &SessionReply{Code: code, Err: detail}, nil
}

// handleProfile resolves a profile query of the opening into the grant
// Setup registers. An empty ID is a bad request, and one already live in
// the store a duplicate, refused before the client spends key generation
// or QKD key on it (Setup checks again, for a race); the control plane's
// per-route λ plan steers empty requests and may downgrade or deny
// concrete ones; without a controller the server grants any profile its
// registry knows (empty resolving to the default). Every session handler
// decodes its own payload; a decode failure is a protocol violation.
func (s *Server) handleProfile(cs *connState, payload []byte) (*SessionReply, error) {
	req, err := decodeProfileRequest(payload)
	if err != nil {
		return nil, err
	}
	if req.SessionID == "" {
		return refuse(serve.CodeBadRequest, "empty session id")
	}
	if _, live := s.store.Peek(req.SessionID); live {
		return refuse(serve.CodeDuplicateSession, fmt.Sprintf("session %q already registered", req.SessionID))
	}
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
	prof, ok := s.reg.Get(granted)
	if !ok {
		return refuse(serve.CodeProfileDenied, fmt.Sprintf("security profile %q not served here", granted))
	}
	if granted != req.Requested && req.Requested != "" {
		s.cfg.Logf("edge: session %q profile %q downgraded to %q per plan",
			req.SessionID, req.Requested, granted)
	}
	cs.grantID, cs.grant = req.SessionID, prof
	return &SessionReply{Profile: granted}, nil
}

// lookupSession resolves the connection's session, and its profile
// runtime, for every session frame: a block before it is queued (so the
// scheduler can route it to the profile's pool), a Rekey and a rotation
// key. It resolves while the store still holds the session, and a hit
// refreshes its LRU position; a session the store has evicted is unknown,
// and the lookup touches nothing.
func (s *Server) lookupSession(cs *connState) (*serve.Session, *profileRuntime, serve.Code, string) {
	sess := cs.sess
	if !s.store.Touch(sess) {
		return nil, nil, serve.CodeUnknownSession, fmt.Sprintf("session %q was evicted", sess.ID)
	}
	rt, err := s.runtime(sess.Profile)
	if err != nil {
		return nil, nil, serve.CodeInternal, "profile runtime: " + err.Error()
	}
	return sess, rt, serve.CodeOK, ""
}

// handleSetup registers the connection's grant, validating the keys the
// Setup carries first; a Setup with no grant is a protocol violation.
func (s *Server) handleSetup(cs *connState, payload []byte) (*SessionReply, error) {
	if cs.grant == nil {
		return nil, fmt.Errorf("%w: Setup before a granted profile query", ErrBadFrame)
	}
	req, err := decodeSetupRequest(payload)
	if err != nil {
		return nil, err
	}
	id, prof := cs.grantID, cs.grant
	ctl := s.cfg.Control
	if ctl != nil {
		// A replan since the query may have moved the route's λ below the
		// grant: a stale grant is denied typed, and the client redials.
		granted, err := ctl.NegotiateProfile(id, prof.ID)
		if err != nil {
			return refuse(serve.CodeOf(err), controlDetail(err))
		}
		if granted != prof.ID {
			return refuse(serve.CodeProfileDenied,
				fmt.Sprintf("profile %q not allowed on this route (plan wants %q); renegotiate", prof.ID, granted))
		}
		if err := ctl.AdmitSession(id, s.store.Len()); err != nil {
			s.cfg.Logf("edge: session %q not admitted: %v", id, err)
			return refuse(serve.CodeOf(err), controlDetail(err))
		}
	}
	// Materialize the profile's runtime before registering, so the first
	// compute never pays context construction on the hot path.
	rt, err := s.runtime(prof.ID)
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
	if err := rt.ctx.CheckSwitchingKey(req.RLK, rt.ctx.RelinLevel()); err != nil {
		return refuse(keyCode(err), "relinearization key: "+err.Error())
	}
	if err := rt.cipher.InstallKey(req.EncKey); err != nil {
		return refuse(serve.CodeBadRequest, "transciphering key: "+err.Error())
	}
	sess := serve.NewSession(id, prof.ID, nil, req.RLK, req.EncKey, req.Nonce)
	if err := s.store.Register(sess); err != nil {
		return refuse(serve.CodeOf(err),
			fmt.Sprintf("session %q already registered (rekey instead of re-registering)", id))
	}
	cs.sess = sess
	if ctl != nil {
		ctl.ObserveSession(id, prof.ID)
	}
	s.cfg.Logf("edge: session %q registered on %s (%d resident)", id, prof.ID, s.store.Len())
	// MatVecDim tells the client which rotation keys the matvec kernel
	// needs (ckks.BSGSRotations of this dimension); zero = no matrix here.
	return &SessionReply{MatVecDim: len(s.cfg.Model.Matrix)}, nil
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

func (s *Server) handleRekey(cs *connState, payload []byte) (*SessionReply, error) {
	req, err := decodeRekeyRequest(payload)
	if err != nil {
		return nil, err
	}
	sess, rt, code, detail := s.lookupSession(cs)
	if code != serve.CodeOK {
		return refuse(code, detail)
	}
	if detail := checkNonce(req.Nonce); detail != "" {
		return refuse(serve.CodeBadRequest, detail)
	}
	// Same install step as Setup: validated and converted before the swap,
	// so key, nonce and epoch still change together under the session lock.
	if err := rt.cipher.InstallKey(req.EncKey); err != nil {
		return refuse(serve.CodeBadRequest, "transciphering key: "+err.Error())
	}
	epoch := sess.Rekey(req.EncKey, req.Nonce)
	s.met.rekeys.Inc()
	s.cfg.Logf("edge: session %q rekeyed to epoch %d", sess.ID, epoch)
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
func (s *Server) handleRotKeys(cs *connState, payload []byte) (*SessionReply, error) {
	req, err := decodeRotKeysRequest(payload)
	if err != nil {
		return nil, err
	}
	sess, rt, code, detail := s.lookupSession(cs)
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
	if err := rt.ctx.CheckSwitchingKey(&gk.SwitchingKey, rt.ctx.GaloisLevel()); err != nil {
		return refuse(keyCode(err), fmt.Sprintf("rotation key %d: %v", gk.Rot, err))
	}
	if !slices.Contains(rt.mvKeys, gk.El) {
		return refuse(serve.CodeBadRequest,
			fmt.Sprintf("rotation key %d: not a rotation of the dimension-%d matvec plan", gk.Rot, dim))
	}
	if cs.rotKeys == nil {
		cs.rotKeys = &ckks.GaloisKeySet{Keys: make(map[uint64]*ckks.GaloisKey, len(rt.mvKeys))}
	}
	set := cs.rotKeys
	if set.Key(gk.El) != nil {
		return refuse(serve.CodeBadRequest, fmt.Sprintf("rotation key %d: uploaded twice", gk.Rot))
	}
	set.Keys[gk.El] = gk
	if len(set.Keys) == len(rt.mvKeys) {
		cs.rotKeys = nil
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
	bt := s.met.newBlockTrace(cs.sess.ID, req.Block, id, decodeStart)
	bt.adopt(req.Trace)
	bt.span(stageIdxDecode, stageDecode, decodeStart, time.Since(decodeStart))
	sess, rt, code, detail := s.lookupSession(cs)
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
func (s *Server) writeReplies(cs *connState) {
	for r := range cs.replies {
		sent := false
		if r.frame != nil {
			sent = cs.fw.send(*r.frame) == nil
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
// share of the time, for its trace split. A panic in the eval — a kernel's,
// or one ring.ForEach re-raised from a helper — is the block's
// CodeInternal: its stack goes to Logf and the worker gets a fresh
// evaluator and scratch, since the panic may have left them half-written.
func (s *Server) evalBlock(o *op, rt *profileRuntime, w *serve.Worker, sess *serve.Session, reqEpoch uint64, block uint32, masked []float64) (result *ckks.Ciphertext, rots int, kdur time.Duration, code serve.Code, detail string) {
	defer func() {
		if p := recover(); p != nil {
			result, rots, kdur, code, detail = nil, 0, 0, serve.CodeInternal, fmt.Sprintf("eval panicked: %v", p)
			s.cfg.Logf("edge: eval panic (session %s, block %d): %v\n%s", sess.ID, block, p, debug.Stack())
			rt.pool.Renew(w)
		}
		s.met.codeCounter(code).Inc()
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
	if reqEpoch != epoch {
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
		// The client only decrypts, and NewServer held the model to the
		// level-0 headroom, so every reply leaves at the floor: one limb,
		// a slice of the transcipher's two for an affine block (a matvec
		// reply is there already).
		if err := result.DropTo(0); err != nil {
			result, code, detail = nil, serve.CodeInternal, "reply: "+err.Error()
		} else {
			sess.RecordBlock(pending)
		}
	}
	d := time.Since(start)
	if ctl != nil {
		ctl.ObserveCompute(sess.ID, pending, d, code)
		if rots > 0 {
			ctl.ObserveRotations(sess.ID, rots)
		}
	}
	rt.evalHist.Observe(d.Seconds())
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

// rekeyBudget resolves a session's per-key byte budget from one source:
// the control plane's plan when one is attached (budgets derived from the
// paper's security-level utility at the session's profile λ; 0 = no
// budget), the static RekeyBytes constant otherwise.
func (s *Server) rekeyBudget(sess *serve.Session) int64 {
	if ctl := s.cfg.Control; ctl != nil {
		return ctl.RekeyBudget(sess.ID)
	}
	return s.cfg.RekeyBytes
}

// rekeyNeeded advises clients once ≥ 3/4 of the key byte budget is spent.
func (s *Server) rekeyNeeded(sess *serve.Session) bool {
	budget := s.rekeyBudget(sess)
	return budget > 0 && 4*sess.BytesSinceRekey() >= 3*budget
}
