package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's own
// tables — which -compare and the result line are driven by — the same.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", m.PerLayer, perLayer)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
}

// TestSmoke runs the real command in -smoke mode on the cheapest workload
// and checks the result line carries every end-to-end metric
// BENCHMARK.json names, finite and with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and measures for a few seconds")
	}
	m := readManifest(t)
	cmd := exec.Command("go", "run", ".", "-smoke", "-workload", "affine-32k-queue")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(m.EndToEnd) {
		t.Errorf("%d metrics on the result line, BENCHMARK.json names %d", len(res.Metrics), len(m.EndToEnd))
	}
	for _, d := range m.EndToEnd {
		got, ok := res.Metrics[d.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s: not emitted", d.Name)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) || *got.Value <= 0:
			t.Errorf("%s = %g: want a finite positive number", d.Name, *got.Value)
		case got.Unit != d.Unit:
			t.Errorf("%s: unit %q, want %q", d.Name, got.Unit, d.Unit)
		}
	}
}
