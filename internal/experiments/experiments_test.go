package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"quhe/internal/core"
	"quhe/internal/qnet"
)

func testConfig() *core.Config { return core.PaperConfig(1) }

func TestParallelMap(t *testing.T) {
	out := make([]int, 50)
	err := parallelMap(50, 8, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelMapPropagatesError(t *testing.T) {
	want := errors.New("boom")
	err := parallelMap(10, 3, func(i int) error {
		if i == 7 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestFig3Small(t *testing.T) {
	res, err := Fig3(testConfig(), 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("got %d values", len(res.Values))
	}
	if res.Summary.N != 3 {
		t.Errorf("summary N = %d", res.Summary.N)
	}
	total := 0
	for _, c := range res.Buckets {
		total += c
	}
	if total != 3 {
		t.Errorf("histogram holds %d of 3 values — objectives outside paper range?", total)
	}
	// All solves from reasonable starts should reach a good objective.
	if res.Summary.Min < 0 {
		t.Errorf("min objective %v negative — solver regressed", res.Summary.Min)
	}
}

func TestFig3Deterministic(t *testing.T) {
	a, err := Fig3(testConfig(), 2, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(testConfig(), 2, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Errorf("value %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestFig4Traces(t *testing.T) {
	res, err := Fig4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stage1) == 0 || len(res.Stage2) == 0 || len(res.Stage3POBJ) == 0 || len(res.Stage3Gap) == 0 {
		t.Fatalf("missing traces: %d/%d/%d/%d",
			len(res.Stage1), len(res.Stage2), len(res.Stage3POBJ), len(res.Stage3Gap))
	}
	// Fig. 4(a): Stage-1 trace ends below its start.
	if res.Stage1[len(res.Stage1)-1] >= res.Stage1[0] {
		t.Error("stage-1 trace did not decrease")
	}
	// Fig. 4(b): the bound certificate never increases and ends finite.
	for i := 1; i < len(res.Stage2); i++ {
		if res.Stage2[i] > res.Stage2[i-1]+1e-9 {
			t.Fatal("stage-2 bound increased")
		}
	}
	if last := res.Stage2[len(res.Stage2)-1]; math.IsInf(last, 0) || math.IsNaN(last) {
		t.Fatalf("stage-2 trace ends non-finite: %v", last)
	}
	// Fig. 4(d): gap reaches 1e-5.
	min := res.Stage3Gap[0]
	for _, g := range res.Stage3Gap {
		if g < min {
			min = g
		}
	}
	if min > 1e-5 {
		t.Errorf("min stage-3 gap %v > 1e-5", min)
	}
}

func TestFig5a(t *testing.T) {
	res, err := Fig5a(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls[0] != 1 {
		t.Errorf("stage-1 calls = %d, want 1", res.Calls[0])
	}
	if res.Calls[1] < 1 || res.Calls[2] < 1 {
		t.Errorf("stage calls = %v", res.Calls)
	}
	if res.Total <= 0 {
		t.Error("non-positive total runtime")
	}
}

func TestStage1MethodsOrdering(t *testing.T) {
	// Objectives are deterministic for a seed; runtimes are single
	// wall-clock readings that a busy box (go test runs packages side by
	// side) can stretch severalfold, so each method keeps the fastest of
	// three runs — the reading least disturbed by whatever ran beside it.
	byName := map[string]Stage1Comparison{}
	for run := 0; run < 3; run++ {
		comps, err := Stage1Methods(testConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != 4 {
			t.Fatalf("got %d methods", len(comps))
		}
		for _, c := range comps {
			if best, ok := byName[c.Method]; !ok || c.Runtime < best.Runtime {
				byName[c.Method] = c
			}
		}
	}
	quhe, gd, rs := byName["QuHE"], byName["GD"], byName["RS"]
	// Fig. 5(c): GD matches QuHE's value; RS is clearly worse.
	if gd.Objective > quhe.Objective+0.05 {
		t.Errorf("GD %v too far above QuHE %v", gd.Objective, quhe.Objective)
	}
	if rs.Objective < quhe.Objective+0.1 {
		t.Errorf("RS %v unexpectedly close to QuHE %v", rs.Objective, quhe.Objective)
	}
	// Fig. 5(b): GD is the slowest method.
	if gd.Runtime <= quhe.Runtime {
		t.Errorf("GD (%v) not slower than QuHE (%v)", gd.Runtime, quhe.Runtime)
	}
}

func TestFig5dShape(t *testing.T) {
	rows, err := Fig5d(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	get := func(m string) Fig5dRow {
		for _, r := range rows {
			if r.Method == m {
				return r
			}
		}
		t.Fatalf("missing method %s", m)
		return Fig5dRow{}
	}
	aa, olaa, occr, quhe := get("AA"), get("OLAA"), get("OCCR"), get("QuHE")
	if !(aa.Objective < olaa.Objective && olaa.Objective < occr.Objective && occr.Objective < quhe.Objective) {
		t.Errorf("objective ordering violated: AA %v, OLAA %v, OCCR %v, QuHE %v",
			aa.Objective, olaa.Objective, occr.Objective, quhe.Objective)
	}
	if !(quhe.UMSL > aa.UMSL) {
		t.Errorf("QuHE UMSL %v not above AA %v", quhe.UMSL, aa.UMSL)
	}
}

func TestFig6BandwidthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	res, err := Fig6(testConfig(), Fig6Bandwidth, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Xs) != 2 {
		t.Fatalf("got %d points", len(res.Xs))
	}
	for _, m := range SweepMethods {
		if len(res.Series[m]) != 2 {
			t.Fatalf("series %s has %d points", m, len(res.Series[m]))
		}
	}
	// QuHE dominates every method at every point.
	for i := range res.Xs {
		for _, m := range []string{"AA", "OLAA", "OCCR"} {
			if res.Series["QuHE"][i] < res.Series[m][i]-1e-6 {
				t.Errorf("x=%v: QuHE %v below %s %v", res.Xs[i], res.Series["QuHE"][i], m, res.Series[m][i])
			}
		}
	}
	// More bandwidth never hurts QuHE.
	if res.Series["QuHE"][1] < res.Series["QuHE"][0]-1e-3 {
		t.Errorf("QuHE objective decreased with more bandwidth: %v", res.Series["QuHE"])
	}
}

func TestFig6UnknownSweep(t *testing.T) {
	if _, err := Fig6(testConfig(), Fig6Which(99), 2, 1); err == nil {
		t.Error("unknown sweep accepted")
	}
}

func TestFig6WhichString(t *testing.T) {
	if Fig6Bandwidth.String() != "bandwidth" || Fig6ServerCPU.String() != "server-cpu" {
		t.Error("Fig6Which labels wrong")
	}
	if !strings.Contains(Fig6Which(9).String(), "9") {
		t.Error("unknown Fig6Which label")
	}
}

func TestTables5And6(t *testing.T) {
	cfg := testConfig()
	t5, err := Table5(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != cfg.N() {
		t.Errorf("Table V has %d rows, want %d", len(t5.Rows), cfg.N())
	}
	if len(t5.Header) != 5 {
		t.Errorf("Table V header = %v", t5.Header)
	}
	// QuHE column of row 1 must match the paper's 2.098.
	if !strings.HasPrefix(t5.Rows[0][1], "2.09") {
		t.Errorf("Table V phi_1 (QuHE) = %s, paper reports 2.098", t5.Rows[0][1])
	}

	t6, err := Table6(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != cfg.Net.NumLinks() {
		t.Errorf("Table VI has %d rows, want %d", len(t6.Rows), cfg.Net.NumLinks())
	}
	// Unused link 6 must report w = 1 for QuHE (paper row w6 = 1.0000).
	if !strings.HasPrefix(t6.Rows[5][1], "1.0000") {
		t.Errorf("Table VI w_6 (QuHE) = %s, want 1.0000", t6.Rows[5][1])
	}
}

func TestTopologyTables(t *testing.T) {
	routes, links := TopologyTables(qnet.SURFnet())
	if len(routes.Rows) != 6 || len(links.Rows) != 18 {
		t.Fatalf("rows = %d routes, %d links", len(routes.Rows), len(links.Rows))
	}
	if routes.Rows[0][1] != "(Hilversum, Delft)" {
		t.Errorf("route 1 end nodes = %s", routes.Rows[0][1])
	}
	if links.Rows[0][2] != "89.84" {
		t.Errorf("link 1 beta = %s", links.Rows[0][2])
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	tab := Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Errorf("table render missing content:\n%s", out)
	}

	buf.Reset()
	RenderHistogram(&buf, []float64{0, 1, 2}, []int{3, 1})
	if !strings.Contains(buf.String(), "###") {
		t.Errorf("histogram render missing bars:\n%s", buf.String())
	}

	buf.Reset()
	RenderTrace(&buf, "trace", []float64{5, 4, 3, 2, 1}, 2)
	if !strings.Contains(buf.String(), "iter    0") {
		t.Errorf("trace render missing first point:\n%s", buf.String())
	}
	buf.Reset()
	RenderTrace(&buf, "empty", nil, 0)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Error("empty trace not handled")
	}

	buf.Reset()
	RenderSeries(&buf, SweepResult{
		XLabel: "x", Xs: []float64{1e7},
		Series: map[string][]float64{"AA": {1}, "OLAA": {2}, "OCCR": {3}, "QuHE": {4}},
	})
	if !strings.Contains(buf.String(), "QuHE") {
		t.Errorf("series render missing method:\n%s", buf.String())
	}
}
