package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"quhe/internal/control"
	"quhe/internal/edge"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
)

type opKind int

const (
	kindAffine opKind = iota // one transcipher-affine block per op
	kindMatVec               // one transcipher + BSGS matvec block per op
	kindChurn                // one whole session lifecycle per op
)

// workload is one closed-loop traffic mix. Client counts are constants
// sized for a 2-core box: a lane sends its next request only after the
// previous reply has been verified.
type workload struct {
	name, why  string
	profile    string
	kind       opKind
	clients    int // connections (churn: concurrent lifecycles)
	inflight   int // closed-loop lanes per connection
	blockSlots int // values per affine block
	matDim     int // dimension of the dense layer the server holds
}

var workloads = []*workload{
	{
		name: "affine-128k-solo", profile: profile.IDLambda128k, kind: kindAffine,
		clients: 1, inflight: 1, blockSlots: 2048, matDim: 256,
		why: "Latency case: one client, full 2048-slot blocks; transcipher is ~all server time and limb fan-out has an idle core to use.",
	},
	{
		name: "matvec-128k-sat", profile: profile.IDLambda128k, kind: kindMatVec,
		clients: 2, inflight: 1, blockSlots: 2048, matDim: 256,
		why: "Throughput case: two clients saturate the eval pool with dense 256x256 matvec; hoisted rotations and key switch dominate.",
	},
	{
		name: "affine-32k-queue", profile: profile.IDLambda32k, kind: kindAffine,
		clients: 2, inflight: 4, blockSlots: 16, matDim: 64,
		why: "Smallest HE cost, 8 outstanding against 2 workers: the standing scheduler queue, where framing and hand-off weigh most.",
	},
	{
		name: "churn-64k", profile: profile.IDLambda64k, kind: kindChurn,
		clients: 2, inflight: 1, blockSlots: 64, matDim: 64,
		why: "Writes beside reads: each op is a session lifecycle (QKD deposit, dial, Galois upload, batch, rekey, matvec, close, replan).",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) lanes() int { return w.clients * w.inflight }

// Verification thresholds: a served value further than replyTolerance
// from the plaintext model is a failed op; a verification pass with less
// than minPrecisionBits fails the run.
const (
	minPrecisionBits  = 20
	verifyOpsPerConn  = 8
	churnBatch        = 4
	churnMaxSessions  = 4
	serverQueueDepth  = 64
	exchangeRawBits   = 8192
	exchangeWerner    = 0.97
	churnDepositBytes = 2 * edge.RekeyWithdrawBytes // setup + one rekey
)

var replyTolerance = math.Ldexp(1, -minPrecisionBits)

// fixture is one running system under test: an in-process edge server on
// loopback TCP with its key plane (and, for churn, its control plane).
type fixture struct {
	w      *workload
	in     *inputs
	srv    *edge.Server
	kc     *qkd.KeyCenter
	ledger *qkd.Ledger
	ctl    *control.Controller
}

func newFixture(w *workload, in *inputs) (*fixture, error) {
	fx := &fixture{w: w, in: in, kc: qkd.NewKeyCenter(), ledger: qkd.NewLedger()}
	fx.kc.AttachLedger(fx.ledger)
	cfg := edge.ServerConfig{Model: in.model, QueueDepth: serverQueueDepth}
	if w.kind == kindChurn {
		// The route pools carry a standing stock so the plan's admission
		// capacity (pooled bytes / bytes per rekey) stays above the session
		// cap; sessions themselves are funded per op.
		net := qnet.SURFnet()
		for r := 0; r < net.NumRoutes(); r++ {
			id := fmt.Sprintf("client-%d", r+1)
			if err := fx.kc.Provision(id, 0); err != nil {
				return nil, err
			}
			xr := streamRand(in.seed, streamExchange, r)
			if _, err := fx.kc.RunExchange(id, exchangeWerner, exchangeRawBits, xr.Int63()); err != nil {
				return nil, fmt.Errorf("route stock: %w", err)
			}
		}
		prof, _ := profile.Default().Get(w.profile)
		ctl, err := control.New(control.Config{
			Network: net, KeyCenter: fx.kc, LambdaSet: []float64{prof.Lambda},
		})
		if err != nil {
			return nil, err
		}
		fx.ctl = ctl
		cfg.Control = ctl
		cfg.MaxSessions = churnMaxSessions
	}
	srv, err := edge.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	fx.srv = srv
	return fx, nil
}

func (fx *fixture) close() {
	if fx.srv != nil {
		fx.srv.Close()
	}
}

// conns is one set of client connections driving the fixture. The gated
// windows and the traced window each dial their own set, the traced one
// with the program's client tracer armed.
type conns struct {
	fx      *fixture
	prefix  string
	tracer  *obs.Tracer
	clients []*edge.Client  // nil for churn, which dials per op
	blocks  []atomic.Uint32 // per connection
	serial  []atomic.Int64  // per lane: churn session counter
}

func (fx *fixture) dialConfig(tracer *obs.Tracer) edge.DialConfig {
	dc := edge.DialConfig{Protocol: edge.ProtoV3, Profile: fx.w.profile, Tracer: tracer, TraceSample: 1}
	if fx.ctl != nil {
		dc.Profile = "" // the plan steers the session to its route's λ
	}
	return dc
}

// fund opens a session's key pool and deposits its seed-derived stock.
func (fx *fixture) fund(id string, key []byte) error {
	if err := fx.kc.Provision(id, 0); err != nil {
		return err
	}
	return fx.kc.Deposit(id, key)
}

// newConns is a connection set with nothing dialed yet: all churn needs,
// since a lifecycle dials its own session.
func (fx *fixture) newConns(prefix string, tracer *obs.Tracer) *conns {
	return &conns{
		fx: fx, prefix: prefix, tracer: tracer,
		blocks: make([]atomic.Uint32, fx.w.clients),
		serial: make([]atomic.Int64, fx.w.lanes()),
	}
}

// connect dials the workload's persistent connections (none for churn).
func (fx *fixture) connect(prefix string, tracer *obs.Tracer) (*conns, error) {
	w := fx.w
	cs := fx.newConns(prefix, tracer)
	if w.kind == kindChurn {
		return cs, nil
	}
	for c := 0; c < w.clients; c++ {
		id := fmt.Sprintf("%s-%d", prefix, c)
		if err := fx.fund(id, fx.in.deposit(c, 0, churnDepositBytes)); err != nil {
			return nil, err
		}
		cl, err := edge.DialQKDWith(fx.srv.Addr(), id, fx.kc, fx.in.keygenSeed[c], fx.dialConfig(tracer))
		if err != nil {
			cs.close()
			return nil, fmt.Errorf("dial %s: %w", id, err)
		}
		cs.clients = append(cs.clients, cl)
		if w.kind == kindMatVec {
			if err := cl.EnableMatVec(); err != nil {
				cs.close()
				return nil, fmt.Errorf("rotation keys %s: %w", id, err)
			}
		}
	}
	return cs, nil
}

func (cs *conns) close() {
	for _, c := range cs.clients {
		c.Close()
	}
}

// op runs lane's k-th op and returns the worst absolute error of its
// replies against the plaintext model. Any transport, admission or
// protocol failure is an error; the caller also fails the op when the
// error exceeds replyTolerance.
func (cs *conns) op(lane, k int, rec *recorder) (float64, error) {
	w := cs.fx.w
	if w.kind == kindChurn {
		return cs.lifecycle(lane, k, rec)
	}
	ci := lane / w.inflight
	c := cs.clients[ci]
	li := &cs.fx.in.lanes[lane]
	block := cs.blocks[ci].Add(1)
	t := rec.op("op", c.SessionID(), block)
	defer t.end(0)
	var p *payload
	var out []float64
	var err error
	switch {
	case w.kind == kindMatVec:
		p = &li.matvec[k%payloadsPerLane]
		err = t.timed("edge.client.matvec", func() error {
			out, err = c.MatVec(block, p.x)
			return err
		})
	case w.inflight > 1:
		p = &li.affine[k%payloadsPerLane]
		err = t.timed("edge.client.compute", func() error {
			pend, err := c.ComputeAsync(block, p.x)
			if err != nil {
				return err
			}
			out, err = pend.Wait()
			return err
		})
	default:
		p = &li.affine[k%payloadsPerLane]
		err = t.timed("edge.client.compute", func() error {
			out, err = c.Compute(block, p.x)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	return maxAbsDiff(out, p.want), nil
}

// lifecycle is one session from key deposit to close, every reply
// checked: the churn workload's op, and the probe every other workload
// uses to time the same calls at its own profile on an idle server.
func (cs *conns) lifecycle(lane, k int, rec *recorder) (worst float64, err error) {
	fx := cs.fx
	li := &fx.in.lanes[lane]
	n := int(cs.serial[lane].Add(1))
	id := fmt.Sprintf("%s-%d-%d", cs.prefix, lane, n)
	t := rec.op("op", id, 1)
	defer t.end(0)

	if err := t.timed("qkd.provision", func() error {
		return fx.fund(id, fx.in.deposit(lane, n, churnDepositBytes))
	}); err != nil {
		return 0, err
	}
	var c *edge.Client
	if err := t.timed("edge.dial", func() error {
		c, err = edge.DialQKDWith(fx.srv.Addr(), id, fx.kc,
			fx.in.keygenSeed[lane%len(fx.in.keygenSeed)]+8*int64(n), fx.dialConfig(cs.tracer))
		return err
	}); err != nil {
		return 0, err
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	if c.Profile() != fx.w.profile {
		return 0, fmt.Errorf("session %s steered to %s, want %s", id, c.Profile(), fx.w.profile)
	}
	if err := t.timed("edge.enable_matvec", c.EnableMatVec); err != nil {
		return 0, err
	}
	first := (k % (payloadsPerLane / churnBatch)) * churnBatch
	batch := li.affine[first : first+churnBatch]
	if err := t.timed("edge.client.batch", func() error {
		xs := make([][]float64, len(batch))
		for i := range batch {
			xs[i] = batch[i].x
		}
		outs, err := c.ComputeBatch(1, xs)
		if err != nil {
			return err
		}
		for i := range batch {
			worst = math.Max(worst, maxAbsDiff(outs[i], batch[i].want))
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if err := t.timed("edge.rekey", c.Rekey); err != nil {
		return 0, err
	}
	mv := &li.matvec[k%payloadsPerLane]
	if err := t.timed("edge.client.matvec", func() error {
		out, err := c.MatVec(1+churnBatch, mv.x)
		if err != nil {
			return err
		}
		worst = math.Max(worst, maxAbsDiff(out, mv.want))
		return nil
	}); err != nil {
		return 0, err
	}
	closed = true
	if err := t.timed("edge.close", c.Close); err != nil {
		return 0, err
	}
	if fx.ctl != nil && lane == 0 {
		if err := t.timed("control.replan", func() error {
			_, err := fx.ctl.Replan()
			return err
		}); err != nil {
			return 0, err
		}
	}
	return worst, nil
}

// verify is the fixed verification pass that doubles as warm-up: every
// lane runs its first ops with every reply checked against the plaintext
// model. It returns the pass's precision in bits, −log2 of the worst
// absolute error, and fails on any op error.
func (cs *conns) verify(opsPerConn int) (float64, error) {
	w := cs.fx.w
	perLane := opsPerConn / w.inflight
	if perLane < 1 {
		perLane = 1
	}
	worst := make([]float64, w.lanes())
	errs := make([]error, w.lanes())
	var wg sync.WaitGroup
	for lane := 0; lane < w.lanes(); lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for k := 0; k < perLane; k++ {
				e, err := cs.op(lane, k, nil)
				if err != nil {
					errs[lane] = fmt.Errorf("verification op %d on lane %d: %w", k, lane, err)
					return
				}
				worst[lane] = math.Max(worst[lane], e)
			}
		}(lane)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var maxErr float64
	for _, e := range worst {
		maxErr = math.Max(maxErr, e)
	}
	bits := precisionBits(maxErr)
	if bits < minPrecisionBits {
		return bits, fmt.Errorf("verification pass: %.1f bits of precision, need %d (worst |served − plaintext| = %g)",
			bits, minPrecisionBits, maxErr)
	}
	return bits, nil
}

func precisionBits(maxErr float64) float64 {
	if maxErr <= 0 {
		return 64 // exact to the float: report the mantissa-ish ceiling
	}
	return -math.Log2(maxErr)
}
