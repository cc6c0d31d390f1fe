package edge

import (
	"time"

	"quhe/internal/obs"
)

// Client-side span names. Lifecycle stages (dial/handshake/keygen/setup,
// rekey, retry backoff) are recorded whenever a tracer is armed — they
// are rare and each one explains a latency cliff; per-compute stages (mask/submit/wait) are recorded only for sampled
// blocks, whose trace context also crosses the wire so the server's
// decode→...→write spans land in the same trace.
const (
	cstageDial      = "dial"
	cstageHandshake = "handshake"
	cstageKeygen    = "keygen"
	cstageSetup     = "setup"
	cstageMask      = "mask"
	cstageSubmit    = "submit"
	cstageWait      = "wait"
	cstageRekey     = "rekey"
)

// traceProcClient labels client-emitted traces' process lane in merged
// chrome dumps (servers use the default lane).
const traceProcClient = "client"

// clientTracer emits the client half of the distributed trace into an
// obs.Tracer. All methods are nil-receiver safe, so untraced clients pay
// one pointer test per call site.
type clientTracer struct {
	tr      *obs.Tracer
	session string
	sample  float64
	// id draws seeded pseudo-random bits for trace/span IDs and the
	// per-compute sampling decision (the client's seeded RNG, so a seeded
	// run traces reproducibly).
	id func() uint64
}

func newClientTracer(tr *obs.Tracer, session string, sample float64, id func() uint64) *clientTracer {
	if tr == nil {
		return nil
	}
	if sample <= 0 || sample > 1 {
		sample = 1
	}
	return &clientTracer{tr: tr, session: session, sample: sample, id: id}
}

// newID returns a nonzero pseudo-random identifier.
func (t *clientTracer) newID() uint64 {
	for {
		if v := t.id(); v != 0 {
			return v
		}
	}
}

// newSpanID returns a nonzero span ID already bounded to the wire's
// parent width, so server spans re-parented under it match it exactly.
func (t *clientTracer) newSpanID() uint64 {
	for {
		if v := obs.MaskSpanID(t.id()); v != 0 {
			return v
		}
	}
}

// sampleTrace makes the per-block sampling decision and mints the block's
// trace identity: a zero context (and nil spans) when unsampled.
func (t *clientTracer) sampleTrace() obs.TraceContext {
	if t == nil {
		return obs.TraceContext{}
	}
	if t.sample < 1 {
		// Compare seeded bits against the sampling fraction; one draw.
		if float64(t.id()>>11)/(1<<53) >= t.sample {
			return obs.TraceContext{}
		}
	}
	return obs.TraceContext{TraceID: t.newID(), Parent: t.newSpanID(), Sampled: true}
}

// clientSpans accumulates one client-side trace and records it on
// finish. The zero context form (lifecycle traces) mints a fresh trace
// ID; a compute's sampled context threads its identity through.
type clientSpans struct {
	t  *clientTracer
	bt obs.BlockTrace
}

// begin opens a trace under an existing context (zero = mint fresh).
// Returns nil — recording nothing — when the tracer is off.
func (t *clientTracer) begin(tc obs.TraceContext, block uint32, reqID uint64, start time.Time) *clientSpans {
	if t == nil {
		return nil
	}
	bt := obs.BlockTrace{
		Session: t.session,
		Block:   block,
		ReqID:   reqID,
		TraceID: tc.TraceID,
		SpanID:  tc.Parent,
		Proc:    traceProcClient,
		Start:   start,
		Spans:   make([]obs.Span, 0, 6),
	}
	if bt.TraceID == 0 {
		bt.TraceID, bt.SpanID = t.newID(), t.newSpanID()
	}
	return &clientSpans{t: t, bt: bt}
}

// span appends a stage lasting from start to now.
func (s *clientSpans) span(stage string, start time.Time) {
	s.spanDur(stage, start, time.Since(start))
}

// spanDur appends a stage with an explicit duration.
func (s *clientSpans) spanDur(stage string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.bt.Spans = append(s.bt.Spans, obs.Span{Stage: stage, Start: start, Dur: d})
}

// finish stamps the total and records the trace. Safe to call once.
func (s *clientSpans) finish() {
	if s == nil {
		return
	}
	s.bt.Total = time.Since(s.bt.Start)
	s.t.tr.Record(s.bt)
}

// event records a standalone single-span trace — the low-noise form for
// rare lifecycle moments (retry backoff, rekey) that are worth a mark on
// the timeline but not a whole span tree.
func (t *clientTracer) event(stage string, start time.Time) {
	if t == nil {
		return
	}
	cs := t.begin(obs.TraceContext{}, 0, 0, start)
	cs.span(stage, start)
	cs.finish()
}
