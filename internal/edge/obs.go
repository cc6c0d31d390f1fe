package edge

import (
	"time"

	"quhe/internal/he/ring"
	"quhe/internal/obs"
	"quhe/internal/serve"
)

// Serving-path stage names: the label domain of quhe_stage_seconds and
// the span names of per-block traces. Fixed at build time per the obs
// cardinality rules.
const (
	stageDecode    = "decode"
	stageQueueWait = "queue_wait"
	stageEval      = "eval"
	stageMatVec    = "matvec"
	stageEncode    = "encode"
	stageWrite     = "write"
)

// serverObs is the edge server's instrument set: every counter, gauge
// and histogram the serving path touches, resolved once at construction
// (a profile's eval histogram once, when its runtime is published) so
// hot-path updates are pure atomics on held pointers. Every server
// has one, on a registry of its own that it also hands to its Controller:
// the instrumented path is the only serving path.
type serverObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	framesIn, framesOut *obs.Counter
	bytesIn, bytesOut   *obs.Counter
	checksumFails       *obs.Counter
	protoMismatches     *obs.Counter
	conns               *obs.Gauge
	rekeys              *obs.Counter
	shedQueueFull       *obs.Counter

	// idleTimeouts counts connections a read deadline reclaimed: idle
	// after Setup, or still without a session at the opening's bound.
	idleTimeouts *obs.Counter

	stages [6]*obs.Histogram // indexed by stage constants below

	// codeCounters holds one prebuilt counter per serve.Code (nil at a
	// slot that is not a code): the code domain is fixed at build time,
	// per the obs label-cardinality rules. Each computed block lands in
	// exactly one of them; the per-profile eval histogram is held on the
	// profile's runtime (registerProfile).
	codeCounters [serve.NumCodes]*obs.Counter
}

const (
	stageIdxDecode = iota
	stageIdxQueueWait
	stageIdxEval
	stageIdxMatVec
	stageIdxEncode
	stageIdxWrite
)

func newServerObs(s *Server) *serverObs {
	reg := obs.NewRegistry()
	m := &serverObs{
		reg:             reg,
		tracer:          obs.NewTracer(0, 0),
		framesIn:        reg.Counter("quhe_wire_frames_total", "frames by direction", "dir", "in"),
		framesOut:       reg.Counter("quhe_wire_frames_total", "", "dir", "out"),
		bytesIn:         reg.Counter("quhe_wire_bytes_total", "wire bytes by direction", "dir", "in"),
		bytesOut:        reg.Counter("quhe_wire_bytes_total", "", "dir", "out"),
		checksumFails:   reg.Counter("quhe_wire_checksum_failures_total", "frames rejected by CRC32C trailer mismatch"),
		protoMismatches: reg.Counter("quhe_wire_protocol_mismatch_total", "connections closed for not opening with a profile query in the current frame version"),
		conns:           reg.Gauge("quhe_edge_conns", "live connections"),
		rekeys:          reg.Counter("quhe_edge_rekeys_total", "successful session rekeys"),
		shedQueueFull:   reg.Counter("quhe_serve_shed_total", "requests shed by reason", "reason", "queue_full"),
		idleTimeouts:    reg.Counter("quhe_edge_idle_timeouts_total", "connections reclaimed by the idle or opening read deadline"),
	}
	for c := range m.codeCounters {
		if code := serve.Code(c); code.Known() {
			m.codeCounters[c] = reg.Counter("quhe_serve_compute_total", "compute outcomes by code", "code", code.String())
		}
	}
	for i, stage := range []string{stageDecode, stageQueueWait, stageEval, stageMatVec, stageEncode, stageWrite} {
		m.stages[i] = reg.Histogram("quhe_stage_seconds", "per-stage serving latency", "stage", stage)
	}
	reg.GaugeFunc("quhe_edge_sessions", "resident sessions", func() float64 {
		return float64(s.store.Len())
	})
	reg.CounterFunc("quhe_edge_evictions_total", "sessions displaced by the session cap", func() float64 {
		return float64(s.store.Evictions())
	})
	reg.GaugeFunc("quhe_serve_queue_depth", "jobs waiting in the scheduler queue", func() float64 {
		return float64(s.sched.QueueDepth())
	})
	reg.GaugeFunc("quhe_serve_queue_capacity", "scheduler depth bound", func() float64 {
		return float64(s.sched.Capacity())
	})
	reg.CounterFunc("quhe_ring_inline_degradations_total", "parallel ring fan-outs that got no helper and ran wholly on their caller: every core was already running fan-out work, or no pool worker was parked", func() float64 {
		return float64(ring.InlineDegradations())
	})
	return m
}

// registerProfile publishes one profile's pool size/utilization gauges
// and returns its eval latency histogram, resolved here once so each
// block observes a held pointer. The profile domain is bounded by the
// registry, per the obs label-cardinality rules.
func (m *serverObs) registerProfile(profileID string, p *serve.EvalPool) *obs.Histogram {
	m.reg.GaugeFunc("quhe_eval_pool_size", "evaluator pool capacity per profile",
		func() float64 { return float64(p.Size()) }, "profile", profileID)
	m.reg.GaugeFunc("quhe_eval_pool_in_use", "evaluators checked out per profile",
		func() float64 { return float64(p.InUse()) }, "profile", profileID)
	m.reg.GaugeFunc("quhe_eval_pool_built", "evaluators materialized per profile",
		func() float64 { return float64(p.Built()) }, "profile", profileID)
	return m.reg.Histogram("quhe_eval_seconds", "transcipher-and-infer latency per profile", "profile", profileID)
}

// codeCounter returns the prebuilt counter for a compute outcome code;
// a value outside the code table counts as internal, as it travels.
func (m *serverObs) codeCounter(code serve.Code) *obs.Counter {
	if !code.Known() {
		code = serve.CodeInternal
	}
	return m.codeCounters[code]
}

// observeSpan feeds one stage span into its latency histogram.
func (m *serverObs) observeSpan(idx int, d time.Duration) {
	m.stages[idx].Observe(d.Seconds())
}

// blockTrace is the in-flight trace of one per-block request, built
// stage by stage across the decode loop, the eval worker and the frame
// writer, then recorded once the reply frame reached the socket. Spans
// also feed the quhe_stage_seconds histograms, so the aggregate and the
// per-request views cannot drift apart.
type blockTrace struct {
	met *serverObs
	bt  obs.BlockTrace
}

// newBlockTrace starts a trace at the decode timestamp (the earliest
// point the server saw the request).
func (m *serverObs) newBlockTrace(session string, block uint32, reqID uint64, start time.Time) *blockTrace {
	return &blockTrace{met: m, bt: obs.BlockTrace{
		Session: session, Block: block, ReqID: reqID, Start: start,
		Spans: make([]obs.Span, 0, 5),
	}}
}

// adopt re-parents the trace under a client-supplied wire context: same
// trace ID, the server's block span parented to the client's submit
// span. An invalid or unsampled context leaves the trace standalone.
func (t *blockTrace) adopt(tc obs.TraceContext) {
	if !tc.Valid() || !tc.Sampled {
		return
	}
	t.bt.TraceID, t.bt.Parent = tc.TraceID, tc.Parent
}

// span appends one stage span and feeds the matching histogram.
func (t *blockTrace) span(idx int, stage string, start time.Time, d time.Duration) {
	t.bt.Spans = append(t.bt.Spans, obs.Span{Stage: stage, Start: start, Dur: d})
	t.met.observeSpan(idx, d)
}

// finish stamps the end-to-end total and hands the trace to the tracer
// (which takes ownership of the spans slice).
func (t *blockTrace) finish() {
	t.bt.Total = time.Since(t.bt.Start)
	t.met.tracer.Record(t.bt)
}
