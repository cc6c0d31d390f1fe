package main

import (
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"quhe/internal/obs"
)

// opTrace is the span tree of one op as the benchmark saw it from
// outside: spans[0] is the root, every other span points at its parent.
// All spans of an op share its id. A nil *opTrace records nothing, so
// untraced windows run the same op code without the bookkeeping.
type opTrace struct {
	id      uint64
	session string
	block   uint32
	spans   []span
}

// begin opens a span under parent (-1 for the root) and returns its
// index for end.
func (t *opTrace) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent})
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Now()
}

// timed records one child span of the root around f.
func (t *opTrace) timed(name string, f func() error) error {
	i := t.begin(name, 0)
	err := f()
	t.end(i)
	return err
}

// recorder holds one lane's op traces in memory until the run ends; each
// lane owns its recorder, so recording takes no lock.
type recorder struct {
	ops []*opTrace
}

var opIDs atomic.Uint64

// op starts a new op trace with an open root span. A nil recorder yields
// a nil trace.
func (r *recorder) op(root, session string, block uint32) *opTrace {
	if r == nil {
		return nil
	}
	t := &opTrace{id: opIDs.Add(1), session: session, block: block}
	t.begin(root, -1)
	r.ops = append(r.ops, t)
	return t
}

// spanRow is one line of the traced run's span table: every span of one
// name, its median duration and median self time (duration minus what the
// span's children cover).
type spanRow struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianMs float64 `json:"median_ms"`
	SelfMs   float64 `json:"self_ms"`
}

func spanTable(ops []*opTrace) []spanRow {
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, t := range ops {
		st := selfTimes(t.spans)
		for i, s := range t.spans {
			durs[s.name] = append(durs[s.name], ms(s.dur()))
			selfs[s.name] = append(selfs[s.name], ms(st[i]))
		}
	}
	out := make([]spanRow, 0, len(durs))
	for name, d := range durs {
		out = append(out, spanRow{Name: name, Count: len(d), MedianMs: median(d), SelfMs: median(selfs[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// medianOrZero is the median of durations collected by name: 0 when the
// run recorded none (a layer the workload never enters).
func medianOrZero(d []float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// spanMedianMs is the median duration of every span of one name.
func spanMedianMs(ops []*opTrace, name string) float64 {
	var d []float64
	for _, t := range ops {
		for _, s := range t.spans {
			if s.name == name {
				d = append(d, ms(s.dur()))
			}
		}
	}
	return medianOrZero(d)
}

// stageMedianMs is spanMedianMs over the program's own tracer dumps
// (client or server lane).
func stageMedianMs(traces []obs.BlockTrace, stage string) float64 {
	var d []float64
	for _, bt := range traces {
		for _, sp := range bt.Spans {
			if sp.Stage == stage {
				d = append(d, ms(sp.Dur))
			}
		}
	}
	return medianOrZero(d)
}

// benchTraces converts the benchmark's op traces to the program's trace
// model so one chrome dump carries all three lanes. An op adopts the
// trace ID the client tracer minted for the same (session, block), which
// is also the ID the server's stage spans were recorded under. Ops with
// no such trace (the replay pass, or a server trace lost to the
// flush-ordering race) keep ID 0 and simply stand alone.
func benchTraces(ops []*opTrace, client []obs.BlockTrace) []obs.BlockTrace {
	type key struct {
		session string
		block   uint32
	}
	ids := make(map[key]uint64, len(client))
	for _, bt := range client {
		if bt.Block != 0 {
			ids[key{bt.Session, bt.Block}] = bt.TraceID
		}
	}
	out := make([]obs.BlockTrace, 0, len(ops))
	for _, t := range ops {
		root := t.spans[0]
		bt := obs.BlockTrace{
			Session: t.session, Block: t.block, ReqID: t.id,
			TraceID: ids[key{t.session, t.block}],
			Proc:    "bench", Start: root.start, Total: root.dur(),
			Spans: make([]obs.Span, 0, len(t.spans)),
		}
		for _, s := range t.spans {
			bt.Spans = append(bt.Spans, obs.Span{Stage: s.name, Start: s.start, Dur: s.dur()})
		}
		out = append(out, bt)
	}
	return out
}

func writeChrome(path string, traces []obs.BlockTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTraces(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
