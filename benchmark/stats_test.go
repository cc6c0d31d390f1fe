package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	orig := append([]float64(nil), xs...)
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.90, 9}, {0.91, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%.2f) = %g, want %g", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, orig) {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	// A raw sample comes back exactly: no bucket rounding.
	if got := quantile([]float64{17.3, 17.9, 18.4}, 0.5); got != 17.9 {
		t.Errorf("p50 = %g, want the sample 17.9", got)
	}
}

func TestMedianSpread(t *testing.T) {
	med, spread := medianSpread([]float64{10, 12, 11})
	if med != 11 || math.Abs(spread-2.0/11) > 1e-12 {
		t.Errorf("medianSpread = %g, %g; want 11, %g", med, spread, 2.0/11)
	}
	if med, spread := medianSpread([]float64{4, 6}); med != 5 || spread != 0.4 {
		t.Errorf("two windows: %g, %g; want 5, 0.4", med, spread)
	}
	if _, spread := medianSpread([]float64{7}); spread != 0 {
		t.Errorf("one window has no spread, got %g", spread)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{15, 0}, {20, 50}, {100, 90}, {146, 93}, {1000, 99}, {100000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "root", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(40), parent: 0},
		{name: "b", start: at(30), end: at(60), parent: 0}, // overlaps a: counted once
		{name: "a.child", start: at(15), end: at(20), parent: 1},
		{name: "late", start: at(90), end: at(120), parent: 0}, // clipped to the root
	}
	want := []time.Duration{
		40 * time.Millisecond, // 100 − [10,60] − [90,100]
		25 * time.Millisecond,
		30 * time.Millisecond,
		5 * time.Millisecond,
		30 * time.Millisecond,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := genInputs(w, 7), genInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different models, keygen seeds or payloads", w.name)
		}
		if !reflect.DeepEqual(a.deposit(1, 3, 64), b.deposit(1, 3, 64)) {
			t.Errorf("%s: same seed gave different QKD deposits", w.name)
		}
		c := genInputs(w, 8)
		if reflect.DeepEqual(a.lanes, c.lanes) || reflect.DeepEqual(a.keygenSeed, c.keygenSeed) ||
			reflect.DeepEqual(a.deposit(1, 3, 64), c.deposit(1, 3, 64)) {
			t.Errorf("%s: another seed gave the same inputs", w.name)
		}
		if len(a.lanes) != w.lanes() {
			t.Errorf("%s: %d lanes of inputs, want %d", w.name, len(a.lanes), w.lanes())
		}
		// Op order: op k of a lane sends payload k mod the ring, so the
		// ring being equal is the order being equal.
		for _, l := range a.lanes {
			if len(l.affine) != payloadsPerLane || len(l.matvec) != payloadsPerLane {
				t.Fatalf("%s: payload ring of %d/%d, want %d", w.name, len(l.affine), len(l.matvec), payloadsPerLane)
			}
		}
	}
}

func TestOracle(t *testing.T) {
	in := genInputs(findWorkload("affine-32k-queue"), 1)
	m := &in.model
	x := in.lanes[0].affine[0].x
	if len(x) <= len(m.Weights) || len(m.Weights) <= len(m.Bias) {
		t.Fatalf("block of %d, %d weights, %d biases: the model must be shorter than the block", len(x), len(m.Weights), len(m.Bias))
	}
	got := affineModel(m, x)
	for i, v := range got {
		want := x[i]
		if i < len(m.Weights) {
			want *= m.Weights[i]
		}
		if i < len(m.Bias) {
			want += m.Bias[i]
		}
		if v != want {
			t.Errorf("slot %d: %g, want %g", i, v, want)
		}
	}
	if last := len(x) - 1; got[last] != x[last] {
		t.Errorf("slot %d past the model must pass through: %g, want %g", last, got[last], x[last])
	}
	small := genInputs(findWorkload("churn-64k"), 1).model
	small.Matrix = [][]float64{{1, 2}, {3, 4}}
	small.MatrixBias = []float64{0.5, -0.5}
	if got := matvecModel(&small, []float64{1, -1}); !reflect.DeepEqual(got, []float64{-0.5, -1.5}) {
		t.Errorf("matvecModel = %v, want [-0.5 -1.5]", got)
	}
	if d := maxAbsDiff([]float64{1, 2}, []float64{1, 2.25}); d != 0.25 {
		t.Errorf("maxAbsDiff = %g, want 0.25", d)
	}
	if d := maxAbsDiff([]float64{1}, []float64{1, 2}); !math.IsInf(d, 1) {
		t.Errorf("a short reply must be infinitely wrong, got %g", d)
	}
	if d := maxAbsDiff([]float64{math.NaN()}, []float64{1}); !math.IsInf(d, 1) {
		t.Errorf("a NaN reply must be infinitely wrong, got %g", d)
	}
}

func TestCalibrate(t *testing.T) {
	s := calibrate()
	for _, v := range []float64{s.wall, s.cpu} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("calibrate() = %+v, want finite positive slowdowns", s)
		}
	}
	if got := between(slowdown{1, 2}, slowdown{3, 4}); got != (slowdown{2, 3}) {
		t.Errorf("between = %+v, want {2 3}", got)
	}
	// The kernel is fixed work: the same buffer state gives the same result.
	a, b := make([]uint64, probeWords), make([]uint64, probeWords)
	for i := range a {
		a[i], b[i] = uint64(i), uint64(i)
	}
	if burst(a) != burst(b) {
		t.Error("burst is not deterministic")
	}
}

func TestJudge(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name      string
		d         metricDef
		base, now value
		want      string
	}{
		{"within bound", lower, value{Value: 100}, value{Value: 109}, verdictOK},
		{"slower", lower, value{Value: 100}, value{Value: 111}, verdictRegression},
		{"faster", lower, value{Value: 100}, value{Value: 50}, verdictOK},
		{"throughput down", higher, value{Value: 100}, value{Value: 89}, verdictRegression},
		{"throughput up", higher, value{Value: 100}, value{Value: 150}, verdictOK},
		{"noisy base", higher, value{Value: 100, Spread: f(0.2)}, value{Value: 100, Spread: f(0.01)}, verdictUnresolved},
		{"noisy new", higher, value{Value: 100, Spread: f(0.01)}, value{Value: 70, Spread: f(0.2)}, verdictUnresolved},
		{"quiet", higher, value{Value: 100, Spread: f(0.02)}, value{Value: 99, Spread: f(0.03)}, verdictOK},
	} {
		if _, got := judge(c.d, c.base, c.now); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
