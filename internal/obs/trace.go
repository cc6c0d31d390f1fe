package obs

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one named stage of a block's serving path with its start time
// and duration.
type Span struct {
	Stage string
	Start time.Time
	Dur   time.Duration
}

// TraceContextLen is the wire size of an encoded TraceContext.
const TraceContextLen = 16

// traceParentMask bounds the parent span ID to the 56 bits that cross
// the wire (the 16th byte carries the flag bits).
const traceParentMask = (uint64(1) << 56) - 1

// traceFlagSampled marks a context whose originator is recording spans;
// receivers adopt the trace ID so both sides land in one causal trace.
const traceFlagSampled = 0x01

// ErrBadTraceContext reports a trace-context field of the wrong size.
var ErrBadTraceContext = errors.New("obs: bad trace context")

// TraceContext is a trace's causal identity as it crosses a process
// boundary: the trace ID shared by every span of one logical request,
// the span ID of the sender-side parent, and the sampling decision.
// The 16-byte wire form is
//
//	offset 0  trace ID     uint64, little-endian (nonzero when valid)
//	offset 8  parent span  low 56 bits, little-endian
//	offset 15 flags        bit 0 = sampled
//
// A zero TraceID means "no context" — the local tracer keeps working,
// but nothing links the two processes.
type TraceContext struct {
	TraceID uint64
	Parent  uint64
	Sampled bool
}

// Valid reports whether the context carries a trace identity.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// AppendBinary appends the 16-byte wire form.
func (tc TraceContext) AppendBinary(b []byte) []byte {
	var p [TraceContextLen]byte
	binary.LittleEndian.PutUint64(p[0:8], tc.TraceID)
	binary.LittleEndian.PutUint64(p[8:16], tc.Parent&traceParentMask)
	if tc.Sampled {
		p[15] |= traceFlagSampled
	}
	return append(b, p[:]...)
}

// MaskSpanID bounds a span ID to the width that survives the wire's
// parent field. Mint local span IDs through this so a child recorded on
// the far side of the wire links back to the exact parent ID, not a
// truncated one.
func MaskSpanID(v uint64) uint64 { return v & traceParentMask }

// DecodeTraceContext parses the 16-byte wire form.
func DecodeTraceContext(p []byte) (TraceContext, error) {
	if len(p) != TraceContextLen {
		return TraceContext{}, ErrBadTraceContext
	}
	return TraceContext{
		TraceID: binary.LittleEndian.Uint64(p[0:8]),
		Parent:  binary.LittleEndian.Uint64(p[8:16]) & traceParentMask,
		Sampled: p[15]&traceFlagSampled != 0,
	}, nil
}

// BlockTrace is the full per-request trace of one served block: the
// per-stage spans plus the measured end-to-end total, so the spans'
// coverage of the real latency is checkable (the acceptance bar: span
// sum within 10% of Total).
//
// TraceID, SpanID and Parent carry the distributed-trace identity: all
// zero for a purely local trace (the pre-propagation behavior), while a
// wire-propagated context sets TraceID on both sides, SpanID on the
// originator's root and Parent on the receiver's re-parented trace.
// Proc names the process lane in chrome dumps; empty means "server".
type BlockTrace struct {
	Session string
	Block   uint32
	ReqID   uint64
	TraceID uint64
	SpanID  uint64
	Parent  uint64
	Proc    string
	Start   time.Time
	Total   time.Duration
	Spans   []Span
}

// ringFirstSlots is the slot count a session's ring starts with: enough
// for a short-lived session's whole life in one allocation.
const ringFirstSlots = 8

// spanRing is one session's bounded trace buffer: it grows by doubling
// up to max traces, then the newest max survive and older ones are
// overwritten in place.
type spanRing struct {
	session string
	mu      sync.Mutex
	buf     []BlockTrace
	max     int
	next    int // the oldest slot, once buf holds max traces
}

func (rg *spanRing) record(bt BlockTrace) {
	rg.mu.Lock()
	if len(rg.buf) == rg.max {
		rg.buf[rg.next] = bt
		rg.next = (rg.next + 1) % rg.max
	} else {
		if len(rg.buf) == cap(rg.buf) {
			grown := make([]BlockTrace, len(rg.buf), min(2*cap(rg.buf), rg.max))
			copy(grown, rg.buf)
			rg.buf = grown
		}
		rg.buf = append(rg.buf, bt)
	}
	rg.mu.Unlock()
}

func (rg *spanRing) snapshot() []BlockTrace {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]BlockTrace, 0, len(rg.buf))
	out = append(out, rg.buf[rg.next:]...)
	return append(out, rg.buf[:rg.next]...)
}

// Tracer collects BlockTraces into per-session ring buffers, one map and
// one LRU list under one lock, the shape of serve.Store. Recording takes
// that lock for a lookup and a list move, then one short per-session
// mutex, and allocates nothing for a session that already has a ring;
// dumps copy everything out, so a dump never blocks recording for long.
// The session ring count is capped exactly: a trace for a new session at
// the cap evicts the ring of the least recently recorded session, so the
// tracer always holds the sessions that served last.
//
// Buffer ownership: Record takes ownership of the trace's Spans slice —
// the caller must not reuse or mutate it afterwards (build a fresh slice
// per block; they are small). Dump and DumpFiltered return copies that
// share those Spans; treat dumped traces as read-only.
type Tracer struct {
	perSession  int
	maxSessions int

	mu    sync.Mutex
	rings map[string]*list.Element
	lru   *list.List // front = most recently recorded; values are *spanRing
}

// NewTracer builds a tracer keeping the last perSession traces (≤ 0:
// 256) for up to maxSessions sessions (≤ 0: 1024).
func NewTracer(perSession, maxSessions int) *Tracer {
	if perSession <= 0 {
		perSession = 256
	}
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	return &Tracer{
		perSession:  perSession,
		maxSessions: maxSessions,
		rings:       make(map[string]*list.Element),
		lru:         list.New(),
	}
}

// Record stores one block trace, taking ownership of bt.Spans. A new
// session at the session cap evicts the least recently recorded one.
func (t *Tracer) Record(bt BlockTrace) {
	t.mu.Lock()
	el := t.rings[bt.Session]
	if el != nil {
		t.lru.MoveToFront(el)
	} else {
		if len(t.rings) >= t.maxSessions {
			oldest := t.lru.Back()
			t.lru.Remove(oldest)
			delete(t.rings, oldest.Value.(*spanRing).session)
		}
		el = t.lru.PushFront(&spanRing{
			session: bt.Session,
			buf:     make([]BlockTrace, 0, min(ringFirstSlots, t.perSession)),
			max:     t.perSession,
		})
		t.rings[bt.Session] = el
	}
	rg := el.Value.(*spanRing)
	t.mu.Unlock()
	rg.record(bt)
}

// Dump returns every buffered trace, ordered by start time.
func (t *Tracer) Dump() []BlockTrace { return t.DumpFiltered("", 0) }

// DumpFiltered returns buffered traces ordered by start time, optionally
// restricted to one session (empty = all) and truncated to the newest
// limit traces (≤ 0 = unlimited).
func (t *Tracer) DumpFiltered(session string, limit int) []BlockTrace {
	t.mu.Lock()
	rings := make([]*spanRing, 0, len(t.rings))
	if session != "" {
		if el := t.rings[session]; el != nil {
			rings = append(rings, el.Value.(*spanRing))
		}
	} else {
		for el := t.lru.Front(); el != nil; el = el.Next() {
			rings = append(rings, el.Value.(*spanRing))
		}
	}
	t.mu.Unlock()
	var out []BlockTrace
	for _, rg := range rings {
		out = append(out, rg.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// chromeEvent is one entry of the chrome://tracing "trace event" JSON
// format (the JSON-array flavor wrapped in {"traceEvents": [...]}).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTraces renders traces as chrome://tracing-compatible JSON:
// one complete ("X") event per span, one per-block envelope event, and
// metadata events naming each process and session lane. Traces from
// different processes (BlockTrace.Proc; empty = "server") land on
// separate pids, so a merged client+server dump renders as two aligned
// process tracks, and every event of a wire-propagated trace carries its
// trace_id — a block's whole life is one greppable identity across both
// lanes. Timestamps are microseconds relative to the earliest trace, so
// the viewer opens at t=0.
func WriteChromeTraces(w io.Writer, traces []BlockTrace) error {
	var events []chromeEvent
	type lane struct{ proc, session string }
	pids := make(map[string]int)
	tids := make(map[lane]int)
	var epoch time.Time
	for i, bt := range traces {
		if i == 0 || bt.Start.Before(epoch) {
			epoch = bt.Start
		}
	}
	us := func(at time.Time) float64 { return float64(at.Sub(epoch)) / float64(time.Microsecond) }
	for _, bt := range traces {
		proc := bt.Proc
		if proc == "" {
			proc = "server"
		}
		pid, ok := pids[proc]
		if !ok {
			pid = len(pids) + 1
			pids[proc] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": proc},
			})
		}
		ln := lane{proc, bt.Session}
		tid, ok := tids[ln]
		if !ok {
			tid = len(tids) + 1
			tids[ln] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": "session " + bt.Session},
			})
		}
		args := map[string]any{"session": bt.Session, "block": bt.Block, "req_id": bt.ReqID}
		if bt.TraceID != 0 {
			args["trace_id"] = hexID(bt.TraceID)
			if bt.SpanID != 0 {
				args["span_id"] = hexID(bt.SpanID)
			}
			if bt.Parent != 0 {
				args["parent_span"] = hexID(bt.Parent)
			}
		}
		events = append(events, chromeEvent{
			Name: "block", Ph: "X", Ts: us(bt.Start),
			Dur: float64(bt.Total) / float64(time.Microsecond),
			Pid: pid, Tid: tid,
			Args: args,
		})
		var spanArgs map[string]any
		if bt.TraceID != 0 {
			spanArgs = map[string]any{"trace_id": hexID(bt.TraceID)}
		}
		for _, sp := range bt.Spans {
			events = append(events, chromeEvent{
				Name: sp.Stage, Ph: "X", Ts: us(sp.Start),
				Dur: float64(sp.Dur) / float64(time.Microsecond),
				Pid: pid, Tid: tid,
				Args: spanArgs,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// hexID renders a trace or span ID in the fixed-width hex form used in
// trace dumps.
func hexID(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}
