// Command benchmark is the repository's serving benchmark: it starts an
// in-process edge.Server, drives it over loopback TCP with edge.Clients in
// four closed-loop workloads, verifies every reply against the plaintext
// model, and prints ten end-to-end metrics per workload plus a per-layer
// ledger measured from outside through each layer's public functions.
//
//	go run ./benchmark                          # all workloads, gated + traced
//	go run ./benchmark -workload churn-64k      # one workload, gated run
//	go run ./benchmark -workload churn-64k -trace 1
//	go run ./benchmark -smoke                   # 1 s windows, gated only
//	go run ./benchmark -json out.json           # also write the full result
//	go run ./benchmark -compare a.json b.json   # apply the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Defaults of a full run. At least minSetupRuns fresh processes back the
// setup_s median, more (up to maxSetupRuns) while they have taken less
// than setupBudget together: a set-up of a few hundred milliseconds is
// the noisiest number here and the cheapest to repeat. The last process
// goes on to measure.
const (
	defaultSeconds = 21
	smokeSeconds   = 3
	minSetupRuns   = 3
	maxSetupRuns   = 7
	setupBudget    = 3.0 // seconds
	childTimeout   = 170 * time.Second
	traceDir       = ".bench_build"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	smoke    bool
	jsonOut  string
}

// envelope records where and how a result was taken.
type envelope struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"numcpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	SingleCore bool    `json:"single_core"`
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Why         string           `json:"why"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedShare float64          `json:"failed_share"`
	Samples     int              `json:"latency_samples"`
	WindowS     float64          `json:"window_seconds"`
	SetupRuns   []float64        `json:"setup_runs_s,omitempty"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	Extra       map[string]value `json:"extra,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Spans       []spanRow        `json:"spans,omitempty"`
	FirstError  string           `json:"first_error,omitempty"`
}

type resultFile struct {
	Envelope  envelope                   `json:"envelope"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	var o options
	var child string
	var spawned int64
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the result line (default: all workloads, gated then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input: keygen seeds, payloads, QKD deposits")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run: three back-to-back windows (traced: one untraced and one traced window of a quarter each)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, chrome trace); 0: the gated run (end-to-end metrics)")
	flag.StringVar(&o.traceOut, "trace-out", "", "chrome trace file of a traced run (default "+traceDir+"/trace-<workload>.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s windows, one set-up, no sample floors: a wiring check, not a measurement")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full result (envelope, spreads, spans) to this file")
	flag.BoolVar(&compare, "compare", false, "compare two -json result files: -compare base.json new.json")
	flag.StringVar(&child, "child", "", "internal: run one phase in this process")
	flag.Int64Var(&spawned, "spawned", 0, "internal: parent's spawn time, unix ns")
	flag.Parse()

	var err error
	switch {
	case compare:
		err = runCompare(flag.Args())
	case child != "":
		err = childMain(child, spawned, o)
	default:
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func childMain(phase string, spawned int64, o options) error {
	co := childOptions{
		phase: phase, workload: o.workload, seed: o.seed, seconds: o.seconds,
		smoke: o.smoke, spawned: time.Now(), traceOut: o.traceOut,
	}
	if spawned > 0 {
		co.spawned = time.Unix(0, spawned)
	}
	res, err := runChild(co)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func parentMain(o options) error {
	env, err := newEnvelope(o)
	if err != nil {
		return err
	}
	if o.smoke {
		o.seconds = smokeSeconds
		env.Seconds = smokeSeconds
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	out := resultFile{Envelope: env, Workloads: map[string]*workloadResult{}}
	printEnvelope(env)

	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
		}
		wr := &workloadResult{Why: w.why}
		out.Workloads[w.name] = wr
		if o.trace != 0 {
			err = runTraced(w, o, wr)
		} else {
			err = runGated(w, o, wr)
		}
		if err != nil {
			return err
		}
		printWorkload(w.name, wr)
		if err := writeResult(o.jsonOut, &out); err != nil {
			return err
		}
		if o.trace != 0 {
			return printResultLine(wr, wr.PerLayer)
		}
		return printResultLine(wr, wr.EndToEnd)
	}

	for _, w := range workloads {
		wr := &workloadResult{Why: w.why}
		out.Workloads[w.name] = wr
		if err := runGated(w, o, wr); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if !o.smoke {
			if err := runTraced(w, o, wr); err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
		}
		printWorkload(w.name, wr)
	}
	return writeResult(o.jsonOut, &out)
}

// printResultLine ends a single-workload run with the contract's result
// object, last on standard output: every metric as {value, unit}.
func printResultLine(wr *workloadResult, metrics map[string]value) error {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]vu, len(metrics))
	for name, v := range metrics {
		out[name] = vu{v.Value, v.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": out,
	})
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runGated is the gated run of one workload: fresh processes set the
// system up and verify it (setup_s is their median), and the last one
// goes on to measure the windows.
func runGated(w *workload, o options, wr *workloadResult) error {
	var spent float64
	for n := 1; !o.smoke && n < maxSetupRuns && (n < minSetupRuns || spent < setupBudget); n++ {
		res, err := spawn(phaseSetup, w, o)
		if err != nil {
			return err
		}
		wr.SetupRuns = append(wr.SetupRuns, res.Nums["setup_s"])
		spent += res.Nums["setup_s"]
	}
	res, err := spawn(phaseGated, w, o)
	if err != nil {
		return err
	}
	wr.SetupRuns = append(wr.SetupRuns, res.Nums["setup_s"])
	res.Nums["setup_s"] = median(wr.SetupRuns)
	wr.account(res)
	wr.Samples, wr.WindowS, wr.Extra = res.Samples, res.WindowS, res.Extra
	wr.EndToEnd, err = tag(endToEnd, res.Nums, res.Spreads)
	return err
}

// runTraced is the traced run, separate from the gated one so tracing
// never touches a gated number.
func runTraced(w *workload, o options, wr *workloadResult) error {
	if o.traceOut == "" {
		o.traceOut = filepath.Join(traceDir, "trace-"+w.name+".json")
	}
	res, err := spawn(phaseTraced, w, o)
	if err != nil {
		return err
	}
	wr.account(res)
	wr.Spans = res.Spans
	if wr.WindowS == 0 { // a traced-only run: the header describes it
		wr.WindowS, wr.Samples = res.WindowS, res.Samples
	}
	wr.PerLayer, err = tag(perLayer, res.Nums, nil)
	return err
}

// account folds one child's op counts into the workload's row. A run is
// correct when every attempted op came back within tolerance of the
// plaintext model and the verification pass kept its precision (a child
// below minPrecisionBits fails outright).
func (wr *workloadResult) account(res *childResult) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	if wr.FirstError == "" {
		wr.FirstError = res.FirstError
	}
	wr.Correct = wr.Failed == 0
	if wr.Attempted > 0 {
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	}
}

// spawn re-executes this binary for one phase of one workload, so set-up
// time, peak RSS, the process-wide CKKS context cache and GC state never
// depend on what ran before. It waits for the child to end.
func spawn(phase string, w *workload, o options) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"-child", phase, "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if phase == phaseTraced {
		args = append(args, "-trace-out", o.traceOut)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s child: %w", w.name, phase, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("%s %s child: bad result: %w", w.name, phase, err)
	}
	return &res, nil
}

// newEnvelope describes the machine and refuses a configuration whose
// numbers would mislead: one P on a multi-core box serializes client,
// server and limb fan-out, which is no deployment anyone runs.
func newEnvelope(o options) (envelope, error) {
	env := envelope{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Smoke:      o.smoke,
	}
	env.SingleCore = env.NumCPU == 1
	if env.GOMAXPROCS == 1 && env.NumCPU > 1 {
		return env, fmt.Errorf("GOMAXPROCS=1 on a %d-core machine: refusing to emit gated numbers", env.NumCPU)
	}
	return env, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the working directory's .git without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

func writeResult(path string, out *resultFile) error {
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func printEnvelope(e envelope) {
	fmt.Printf("# cpu=%q numcpu=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%g smoke=%t single_core=%t\n",
		e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GitCommit, e.Seed, e.Seconds, e.Smoke, e.SingleCore)
}

// printWorkload prints every metric of one workload by name with its
// unit, end-to-end first, then the per-layer ledger and the span table.
func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n## %s  (attempted %d, failed %d, latency samples %d, window %.2f s)\n",
		name, wr.Attempted, wr.Failed, wr.Samples, wr.WindowS)
	if wr.FirstError != "" {
		fmt.Printf("first error: %s\n", wr.FirstError)
	}
	row := func(metric string, v value) {
		line := fmt.Sprintf("%-18s %-34s %14.6g %s", name, metric, v.Value, v.Unit)
		if v.Spread != nil {
			line += fmt.Sprintf("   %s_spread %.2f%%", metric, 100**v.Spread)
		}
		fmt.Println(line)
	}
	if wr.EndToEnd != nil {
		for _, d := range endToEnd {
			row(d.Name, wr.EndToEnd[d.Name])
		}
		row("failed_share", value{Value: wr.FailedShare, Unit: "ratio"})
		extra := make([]string, 0, len(wr.Extra))
		for k := range wr.Extra {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		for _, k := range extra {
			row(k+" (ungated)", wr.Extra[k])
		}
	}
	if wr.PerLayer != nil {
		for _, d := range perLayer {
			row(d.Name, wr.PerLayer[d.Name])
		}
	}
	if len(wr.Spans) > 0 {
		fmt.Printf("%-18s %-34s %8s %12s %12s\n", name, "span", "count", "median ms", "self ms")
		for _, s := range wr.Spans {
			fmt.Printf("%-18s %-34s %8d %12.4f %12.4f\n", name, s.Name, s.Count, s.MedianMs, s.SelfMs)
		}
	}
}
