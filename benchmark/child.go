package main

import (
	"fmt"
	"strings"
	"time"

	"quhe/internal/he/ring"
	"quhe/internal/obs"
)

// Child phases. Every phase sets the system up and runs the verification
// pass; "setup" stops there (it exists so setup_s can be a median over
// fresh processes), "gated" adds the measurement windows, "traced" the
// traced windows, the direct layer calls and the idle-server probes.
const (
	phaseSetup  = "setup"
	phaseGated  = "gated"
	phaseTraced = "traced"
)

const gatedWindows = 3

// childResult is what one child process reports to its parent on stdout.
type childResult struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Samples    int                `json:"samples"`
	WindowS    float64            `json:"window_s"`
	Nums       map[string]float64 `json:"nums"`
	Spreads    map[string]float64 `json:"spreads,omitempty"`
	Extra      map[string]value   `json:"extra,omitempty"`
	Spans      []spanRow          `json:"spans,omitempty"`
	FirstError string             `json:"first_error,omitempty"`
}

type childOptions struct {
	phase    string
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	spawned  time.Time // when the parent started this process
	traceOut string
}

func runChild(o childOptions) (*childResult, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	verifyOps, r := verifyOpsPerConn, fullReps
	if o.smoke {
		verifyOps, r = 2, smokeReps
	}
	in := genInputs(w, o.seed)
	fx, err := newFixture(w, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fx.close()
	cs, err := fx.connect("s", nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer cs.close()
	bits, err := cs.verify(verifyOps)
	if err != nil {
		return nil, err
	}
	setup := time.Since(o.spawned).Seconds()
	box := calibrate()
	res := &childResult{
		Nums:  map[string]float64{"setup_s": setup / correction(box.wall), "precision_bits": bits},
		Extra: map[string]value{"setup_s_raw": {Value: setup, Unit: "s"}},
	}
	switch o.phase {
	case phaseSetup:
	case phaseGated:
		res.WindowS = o.seconds / gatedWindows
		var rs runStats
		for i := 0; i < gatedWindows; i++ {
			w := measure(cs, 1, seconds(res.WindowS), verifyOps+i, false)
			after := calibrate()
			rs.add(w, between(box, after))
			box = after
		}
		if err := res.gated(&rs); err != nil {
			return nil, err
		}
	case phaseTraced:
		res.WindowS = o.seconds / (4 * tracedRounds)
		if err := res.traced(fx, cs, o, r, verifyOps); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown phase %q", o.phase)
	}
	cs.close()
	fx.close()
	if res.Nums["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// gated reduces the measurement windows to the end-to-end metrics: rates
// and per-op costs are the median over windows with their in-run spread,
// latency quantiles are nearest-rank over the pooled raw samples.
func (res *childResult) gated(rs *runStats) error {
	res.account(rs)
	if len(rs.latencyMs) == 0 {
		return fmt.Errorf("no op verified in %d attempted: %v", rs.attempted, rs.firstErr)
	}
	res.Spreads = map[string]float64{}
	window := func(name string, f func(w windowStats) float64) {
		res.Nums[name], res.Spreads[name] = medianSpread(rs.perWindow(f))
	}
	window("ops_per_s", func(w windowStats) float64 { return w.ops / w.seconds * correction(w.slow.wall) })
	window("cpu_ms_per_op", func(w windowStats) float64 { return w.cpuMs / w.ops / correction(w.slow.cpu) })
	window("alloc_mb_per_op", func(w windowStats) float64 { return w.allocMB / w.ops })
	window("allocs_per_op", func(w windowStats) float64 { return w.mallocs / w.ops })
	res.Nums["latency_p50_ms"] = quantile(rs.latencyMs, 0.50)
	res.Nums["latency_p90_ms"] = quantile(rs.latencyMs, 0.90)
	if p := highestPercentile(len(rs.latencyMs)); p > 90 {
		res.Extra[fmt.Sprintf("latency_p%d_ms", p)] = value{Value: quantile(rs.latencyMs, float64(p)/100), Unit: "ms"}
	}
	// What the clocks read before normalization, and the factor itself.
	res.Extra["ops_per_s_raw"] = value{Value: median(rs.perWindow(func(w windowStats) float64 { return w.ops / w.seconds })), Unit: "1/s"}
	res.Extra["cpu_ms_per_op_raw"] = value{Value: median(rs.perWindow(func(w windowStats) float64 { return w.cpuMs / w.ops })), Unit: "ms"}
	res.Extra["latency_p50_ms_raw"] = value{Value: quantile(rs.rawMs, 0.50), Unit: "ms"}
	res.Extra["latency_p90_ms_raw"] = value{Value: quantile(rs.rawMs, 0.90), Unit: "ms"}
	res.Extra["box_slowdown"] = value{Value: median(rs.perWindow(func(w windowStats) float64 { return w.slow.wall })), Unit: "ratio"}
	res.Extra["box_slowdown_cpu"] = value{Value: median(rs.perWindow(func(w windowStats) float64 { return w.slow.cpu })), Unit: "ratio"}
	return nil
}

func (res *childResult) account(rs *runStats) {
	res.Attempted += rs.attempted
	res.Failed += rs.failed
	res.Samples += len(rs.latencyMs)
	if rs.firstErr != nil && res.FirstError == "" {
		res.FirstError = rs.firstErr.Error()
	}
}

// counters are the program's own exact counts the benchmark reads from
// outside; deltas over a window divide by the ops the window ran.
type counters struct {
	inline      int64
	evictions   int64
	withdrawals int64
	keyBytes    int64
}

func (fx *fixture) counters() counters {
	n, b := fx.ledger.Totals()
	return counters{inline: ring.InlineDegradations(), evictions: fx.srv.Evictions(), withdrawals: n, keyBytes: b}
}

func (c counters) minus(o counters) counters {
	return counters{c.inline - o.inline, c.evictions - o.evictions, c.withdrawals - o.withdrawals, c.keyBytes - o.keyBytes}
}

func (c counters) plus(o counters) counters {
	return counters{c.inline + o.inline, c.evictions + o.evictions, c.withdrawals + o.withdrawals, c.keyBytes + o.keyBytes}
}

// tracedRounds is how often the traced run alternates an untraced and a
// traced window: on a box whose speed drifts within seconds, windows
// taken back to back see different machines, alternating ones less so.
const tracedRounds = 2

// traced is the separate traced run: alternating untraced and traced
// windows on the same server (their p50 difference is the tracing
// overhead), then on the idle server the direct layer calls, solo round
// trips paired with socket-free replays, and whole session lifecycles. It
// fills every per-layer metric and writes all spans as one chrome trace.
func (res *childResult) traced(fx *fixture, cs *conns, o childOptions, r reps, firstOp int) error {
	tracer := obs.NewTracer(1<<12, 1<<12)
	ts, err := fx.connect("t", tracer)
	if err != nil {
		return err
	}
	defer ts.close()
	if _, err := ts.verify(1); err != nil {
		return err
	}
	win := seconds(res.WindowS)
	var plainMs, tracedMs []float64
	var ops []*opTrace
	var delta counters
	for round := 0; round < tracedRounds; round++ {
		plain := measure(cs, 1, win, firstOp+round, false)
		before := fx.counters()
		traced := measure(ts, 1, win, firstOp+round, true)
		delta = delta.plus(fx.counters().minus(before))
		res.account(&plain)
		res.account(&traced)
		plainMs = append(plainMs, plain.latencyMs...)
		tracedMs = append(tracedMs, traced.latencyMs...)
		ops = append(ops, traced.traces...)
	}
	cs.close()
	ts.close()
	if len(plainMs) == 0 || len(tracedMs) == 0 {
		return fmt.Errorf("a window verified no op: %s", res.FirstError)
	}
	m := res.Nums
	perOp := float64(len(ops))
	m["ring.inline_degradations_per_op"] = float64(delta.inline) / perOp
	m["serve.evictions_per_op"] = float64(delta.evictions) / perOp
	m["qkd.withdrawals_per_op"] = float64(delta.withdrawals) / perOp
	m["qkd.key_bytes_per_op"] = float64(delta.keyBytes) / perOp
	p50 := quantile(plainMs, 0.5)
	m["trace.overhead_pct"] = 100 * (quantile(tracedMs, 0.5) - p50) / p50

	// Idle server from here on. Per-layer times stay as the clocks read
	// them; box.slowdown says how far from reference speed that was.
	m["box.slowdown"] = calibrate().wall
	lp, err := newLayerPass(fx.w, fx.in, r)
	if err != nil {
		return err
	}
	layers, err := lp.run()
	if err != nil {
		return fmt.Errorf("direct layer calls: %w", err)
	}
	for k, v := range layers {
		m[k] = v
	}
	rtt, replayed, err := fx.reconcile(lp)
	if err != nil {
		return fmt.Errorf("solo round trip against replay: %w", err)
	}
	var ledger float64
	for _, name := range ledgerSpans {
		ledger += spanMedianMs(replayed, name)
	}
	m["edge.rtt_solo_ms"] = rtt
	m["edge.overhead_ms"] = rtt - ledger
	m["edge.ledger_coverage"] = ledger / rtt

	probes := &recorder{}
	pc := fx.newConns("probe", nil)
	for i := 0; i < r.probes; i++ {
		if e, err := pc.lifecycle(0, i, probes); err != nil || e > replyTolerance {
			return fmt.Errorf("lifecycle probe %d: off by %g, %v", i, e, err)
		}
	}
	ops = append(ops, probes.ops...)
	m["edge.dial_ms"] = spanMedianMs(ops, "edge.dial")
	m["edge.enable_matvec_ms"] = spanMedianMs(ops, "edge.enable_matvec")
	m["edge.batch_item_ms"] = spanMedianMs(ops, "edge.client.batch") / churnBatch
	m["edge.rekey_ms"] = spanMedianMs(ops, "edge.rekey")
	m["edge.close_ms"] = spanMedianMs(ops, "edge.close")
	ops = append(ops, replayed...)

	// The program's own tracer, read after Close. A reply can reach the
	// client before its server trace is recorded, so the last server
	// trace of a session may be missing; medians do not care.
	if err := fx.srv.Close(); err != nil {
		return err
	}
	clientTraces := tracer.Dump()
	var serverTraces, windowTraces []obs.BlockTrace
	if tr := fx.srv.Tracer(); tr != nil {
		serverTraces = tr.Dump()
	}
	for _, bt := range serverTraces {
		if strings.HasPrefix(bt.Session, ts.prefix+"-") {
			windowTraces = append(windowTraces, bt)
		}
	}
	for _, stage := range []string{"decode", "queue_wait", "eval", "matvec", "encode", "write"} {
		m["edge.stage_"+stage+"_ms"] = stageMedianMs(windowTraces, stage)
	}
	m["edge.client_mask_ms"] = stageMedianMs(clientTraces, "mask")
	m["edge.client_wait_ms"] = stageMedianMs(clientTraces, "wait")

	res.Spans = spanTable(ops)
	if o.traceOut != "" {
		all := append(benchTraces(ops, clientTraces), clientTraces...)
		if err := writeChrome(o.traceOut, append(all, serverTraces...)); err != nil {
			return fmt.Errorf("chrome trace: %w", err)
		}
	}
	return nil
}

// reconcile alternates one solo round trip of the workload's block op
// against the idle server with one socket-free replay of the same op, so
// the round trip and the ledger it is reconciled against see the same
// machine. For churn, whose op is a lifecycle, the block op is an affine
// block at its profile. It returns the median round trip and the replays.
func (fx *fixture) reconcile(lp *layerPass) (rttMs float64, replayed []*opTrace, err error) {
	solo := *fx.w
	solo.clients, solo.inflight = 1, 1
	if solo.kind == kindChurn {
		solo.kind = kindAffine
	}
	sfx := *fx
	sfx.w = &solo
	sc, err := sfx.connect("solo", nil)
	if err != nil {
		return 0, nil, err
	}
	defer sc.close()
	rec := &recorder{}
	var rtts []float64
	for i := 0; i < lp.r.replays; i++ {
		t0 := time.Now()
		e, err := sc.op(0, i, nil)
		rtts = append(rtts, ms(time.Since(t0)))
		if err != nil || e > replyTolerance {
			return 0, nil, fmt.Errorf("round trip %d: off by %g, %v", i, e, err)
		}
		lp.replay(rec, i)
		if lp.err != nil {
			return 0, nil, lp.err
		}
	}
	return median(rtts), rec.ops, nil
}
