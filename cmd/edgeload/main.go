// Command edgeload is a load generator for the QuHE edge serving runtime.
// It drives many QKD-provisioned clients against an edge server — its own
// in-process server by default, or a live one via -addr — with open-loop
// arrivals (requests fire at the configured rate regardless of
// completions, so queueing delay is visible) or closed-loop streams
// (-rate 0: each client keeps one request in flight). It reports a JSON
// summary with aggregate throughput, a latency histogram and quantiles:
//
//	edgeload -clients 4 -rate 200 -duration 5s
//	edgeload -addr 10.0.0.7:9000 -clients 16 -rate 1000 -duration 30s
//
// Each client's key material flows through the QKD plane: a simulated
// BBM92 exchange deposits key bits at the key centre, DialQKD withdraws
// them, and -rekey-bytes exercises the rekeying path under load.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quhe/internal/control"
	"quhe/internal/edge"
	"quhe/internal/faultnet"
	"quhe/internal/he/profile"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/qnet"
	"quhe/internal/serve"
)

type config struct {
	Addr        string        `json:"addr"`
	Clients     int           `json:"clients"`
	Rate        float64       `json:"rate_rps"`
	Duration    time.Duration `json:"-"`
	Slots       int           `json:"slots_per_block"`
	Workers     int           `json:"workers"`
	QueueDepth  int           `json:"queue_depth"`
	RekeyBytes  int64         `json:"rekey_bytes"`
	Profile     string        `json:"profile"`
	Workload    string        `json:"workload"`
	Control     bool          `json:"control"`
	StockBytes  int           `json:"stock_bytes"`
	MetricsAddr string        `json:"metrics_addr,omitempty"`
	// Chaos knobs: when any probability is nonzero every client dials
	// through a seeded faultnet injector and runs with reconnect + resume
	// enabled, so the summary proves sessions survive transport faults.
	FaultSeed  int64   `json:"fault_seed,omitempty"`
	FaultDrop  float64 `json:"fault_drop,omitempty"`
	FaultDelay float64 `json:"fault_delay,omitempty"`
	// Tracing knobs: sample rate for client-side distributed traces and
	// the optional merged client+server chrome://tracing dump.
	TraceSample float64 `json:"trace_sample,omitempty"`
	TraceOut    string  `json:"-"`
}

// sloInfo reports the load run's client-observed SLO attainment: the
// fraction of requests that completed without error, and the fraction of
// served requests under the latency target.
type sloInfo struct {
	Availability float64 `json:"availability"`
	Latency      float64 `json:"latency"`
	TargetMs     float64 `json:"latency_target_ms"`
}

// sloLatencyTarget mirrors the server's per-eval latency objective
// threshold, applied client-side to end-to-end request latency.
const sloLatencyTarget = 250 * time.Millisecond

// planInfo echoes the controller's final plan in the JSON summary.
type planInfo struct {
	Seq           uint64    `json:"seq"`
	RouteLambda   []float64 `json:"route_lambda"`
	RouteProfile  []string  `json:"route_profile"`
	DefaultBudget int64     `json:"default_rekey_budget"`
	AdmitCapacity int       `json:"admit_capacity"`
}

// workloadInfo is one request kind's slice of the summary: how many
// blocks it served and its own latency quantiles, so an affine/matvec
// mix shows the two operations' costs side by side instead of blended.
type workloadInfo struct {
	Served int64   `json:"served"`
	P50Ms  float64 `json:"latency_ms_p50"`
	P99Ms  float64 `json:"latency_ms_p99"`
}

type bucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

type summary struct {
	Config     config  `json:"config"`
	DurationS  float64 `json:"duration_s"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	// Profiles maps each negotiated security profile to the blocks its
	// clients served — the mixed-λ view under -profile mix.
	Profiles map[string]int64 `json:"profiles,omitempty"`
	// Workloads splits served counts and latency per request kind
	// (affine, matvec) — populated for every run so gates can assert on
	// the kinds they expect.
	Workloads map[string]workloadInfo `json:"workloads,omitempty"`
	Requests  int64                   `json:"requests"`
	Served    int64                   `json:"served"`
	Shed      int64                   `json:"shed_overloaded"`
	Denied    int64                   `json:"shed_admission"`
	ShedKey   int64                   `json:"shed_key_exhausted"`
	Errors    int64                   `json:"errors"`
	Rekeys    int64                   `json:"rekeys"`
	// Fault-tolerance rollup (sum of every client's Stats): transport
	// reconnects, session resumes riding them, and Compute replays.
	Reconnects int64     `json:"reconnects"`
	Resumes    int64     `json:"resumes"`
	Replays    int64     `json:"replays,omitempty"`
	Plan       *planInfo `json:"control_plan,omitempty"`
	SLO        *sloInfo  `json:"slo,omitempty"`
	Throughput float64   `json:"throughput_blocks_per_s"`
	P50Ms      float64   `json:"latency_ms_p50"`
	P90Ms      float64   `json:"latency_ms_p90"`
	P99Ms      float64   `json:"latency_ms_p99"`
	MaxMs      float64   `json:"latency_ms_max"`
	Histogram  []bucket  `json:"latency_histogram"`
	// ServerMetrics is the final /metrics scrape of the in-process
	// server's debug plane (non-histogram samples only), present when
	// -metrics-addr was set.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
}

// Workload indices for the per-kind latency split.
const (
	wlAffine = iota
	wlMatVec
	numWorkloads
)

func workloadName(wl int) string {
	if wl == wlMatVec {
		return "matvec"
	}
	return "affine"
}

type recorder struct {
	lat      obs.Histogram // client-observed latency, seconds
	wlLat    [numWorkloads]obs.Histogram
	wlServed [numWorkloads]atomic.Int64
	served   atomic.Int64
	servedBy []atomic.Int64 // per-client, for the per-profile rollup
	shed     atomic.Int64
	denied   atomic.Int64
	shedKey  atomic.Int64
	errs     atomic.Int64
	// Client-observed SLOs: availability over every outcome, latency
	// over served requests against the end-to-end target.
	availSLO *obs.SLOTracker
	latSLO   *obs.SLOTracker
}

func (r *recorder) record(ci, wl int, lat time.Duration, err error) {
	r.availSLO.Observe(err == nil)
	switch {
	case err == nil:
		r.served.Add(1)
		r.servedBy[ci].Add(1)
		r.wlServed[wl].Add(1)
		r.lat.Observe(lat.Seconds())
		r.wlLat[wl].Observe(lat.Seconds())
		r.latSLO.Observe(lat <= sloLatencyTarget)
	case isOverloaded(err):
		r.shed.Add(1)
	case isDenied(err):
		// The control plane shed this request by policy (projected key
		// consumption or queue occupancy over plan): typed, not an error.
		r.denied.Add(1)
	case isKeyExhausted(err):
		// QKD key starvation is degradation, not failure: the server told
		// the client when to come back (serve.RetryAfter), so it counts as
		// a typed shed alongside admission denials.
		r.shedKey.Add(1)
	default:
		r.errs.Add(1)
		fmt.Fprintf(os.Stderr, "edgeload: %v\n", err)
	}
}

func isOverloaded(err error) bool {
	return err != nil && serve.CodeOf(err) == serve.CodeOverloaded
}

func isDenied(err error) bool {
	return err != nil && serve.CodeOf(err) == serve.CodeAdmissionDenied
}

func isKeyExhausted(err error) bool {
	return err != nil && serve.CodeOf(err) == serve.CodeKeyExhausted
}

// histogram renders a latency snapshot (seconds) as the summary's
// millisecond buckets: one entry per nonzero bucket at the shared obs
// boundaries, counts per bucket (not cumulative). The overflow bucket,
// should anything land there, is pinned to the observed max.
func histogram(s obs.HistSnapshot) []bucket {
	var out []bucket
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		le := obs.BucketUpper(i) * 1e3
		if i == len(s.Counts)-1 {
			le = s.Max * 1e3
		}
		out = append(out, bucket{LeMs: le, Count: c})
	}
	return out
}

// scrapeServerMetrics pulls the debug plane's /metrics page into flat
// name{labels} → value samples, skipping comment and histogram-bucket
// lines (bucket series would bloat the JSON without adding anything the
// _sum/_count pairs don't already say).
func scrapeServerMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// starNetwork builds one QKD route per client — a star rooted at the key
// centre with SURFnet-scale link capacities — so the controller's Stage-1
// allocation has a route (and a provisioned rate) per load client.
func starNetwork(clients int) (*qnet.Network, error) {
	links := make([]qnet.Link, clients)
	routes := make([]qnet.Route, clients)
	for i := 0; i < clients; i++ {
		links[i] = qnet.Link{ID: i + 1, LengthKm: 30, Beta: 80}
		routes[i] = qnet.Route{ID: i + 1, Source: "kc", Dest: clientID(i), LinkIDs: []int{i + 1}}
	}
	return qnet.New(links, routes)
}

func clientID(i int) string { return fmt.Sprintf("load-%d", i) }

// loadMatrix builds the in-process server's n×n dense layer for the
// matvec workloads: a diagonally dominant mixing matrix, so results stay
// O(1) regardless of n.
func loadMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = 0.5
			} else {
				m[i][j] = 0.25 / float64(n)
			}
		}
	}
	return m
}

func loadBias(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.01 * float64(i%4)
	}
	return b
}

// routeOf maps session IDs back to their star route ("load-3" → 3).
func routeOf(clients int) func(sessionID string) int {
	return func(sessionID string) int {
		var i int
		if _, err := fmt.Sscanf(sessionID, "load-%d", &i); err != nil || i < 0 || i >= clients {
			return 0
		}
		return i
	}
}

// provision runs simulated BBM92 exchanges until the client's pool can
// cover the initial key plus headroom for rekeys. A positive stock
// instead deposits exactly that many bytes — the finite-stock mode the
// -control runs use to demonstrate admission shedding on key exhaustion.
func provision(kc *qkd.KeyCenter, id string, seed int64, need, stock int) error {
	if stock > 0 {
		if err := kc.Provision(id, 1000); err != nil {
			return err
		}
		return kc.Deposit(id, make([]byte, stock))
	}
	if err := kc.Provision(id, 1000); err != nil {
		return err
	}
	for round := 0; round < 32; round++ {
		have, err := kc.Available(id)
		if err != nil {
			return err
		}
		if have >= need {
			return nil
		}
		if _, err := kc.RunExchange(id, 0.97, 8192, seed+int64(round)); err != nil {
			return err
		}
	}
	return fmt.Errorf("edgeload: QKD pool for %s never reached %d bytes", id, need)
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.Addr, "addr", "", "edge server address (empty: start an in-process server)")
	flag.IntVar(&cfg.Clients, "clients", 4, "concurrent client sessions")
	flag.Float64Var(&cfg.Rate, "rate", 200, "total open-loop arrival rate, blocks/s (0: closed loop)")
	flag.DurationVar(&cfg.Duration, "duration", 5*time.Second, "measurement duration")
	flag.IntVar(&cfg.Slots, "slots", 16, "values per block")
	flag.IntVar(&cfg.Workers, "workers", 0, "server evaluator-pool size (in-process server only; 0: GOMAXPROCS)")
	flag.IntVar(&cfg.QueueDepth, "queue", 0, "server queue depth (in-process server only; 0: 4×workers)")
	flag.Int64Var(&cfg.RekeyBytes, "rekey-bytes", 0, "per-key byte budget (in-process server only; 0: no rekeying; with -control: the controller's base budget at λ_ref)")
	flag.StringVar(&cfg.Profile, "profile", "", "security profile for every client: a registry ID, \"mix\" (spread clients across the registry), or empty (server/plan steering)")
	flag.StringVar(&cfg.Workload, "workload", "affine", "request kind: affine (transcipher-affine blocks), matvec (BSGS packed matrix–vector blocks), mix (alternate per request)")
	flag.BoolVar(&cfg.Control, "control", false, "attach the closed-loop control plane (in-process server only): online admission, U_msl-derived rekey budgets, QKD provisioning from the live allocation")
	flag.IntVar(&cfg.StockBytes, "stock", 0, "finite per-client QKD key stock in bytes (0: replenish generously); with -control, exhaustion degrades to typed key-exhausted sheds with a retry-after hint")
	flag.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "bind the in-process server's debug plane (/metrics, /debug/pprof) on this address and fold a final scrape into the JSON summary")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 1, "seed for the deterministic fault injector (with -fault-drop/-fault-delay)")
	flag.Float64Var(&cfg.FaultDrop, "fault-drop", 0, "per-I/O probability of a mid-frame connection drop; nonzero enables reconnect + resume on every client")
	flag.Float64Var(&cfg.FaultDelay, "fault-delay", 0, "per-I/O probability of a short injected delay (0.2–2ms)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 0, "client-side distributed-trace sampling fraction in (0, 1]; sampled blocks carry their trace context to the server")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "write a merged client+server chrome://tracing dump to this file (enables tracing even at -trace-sample 0)")
	jsonOut := flag.String("json", "-", "write the JSON summary to this file (\"-\": stdout, \"\": suppress)")
	flag.Parse()

	if cfg.Clients < 1 || cfg.Slots < 1 || cfg.Duration <= 0 {
		fmt.Fprintln(os.Stderr, "edgeload: -clients, -slots and -duration must be positive")
		os.Exit(2)
	}
	reg := profile.Default()
	profileFor := func(i int) string { return cfg.Profile }
	switch cfg.Profile {
	case "", reg.DefaultID():
	case "mix":
		ids := reg.IDs()
		profileFor = func(i int) string { return ids[i%len(ids)] }
	default:
		if _, ok := reg.Get(cfg.Profile); !ok {
			fmt.Fprintf(os.Stderr, "edgeload: unknown -profile %q (have %v or \"mix\")\n", cfg.Profile, reg.IDs())
			os.Exit(2)
		}
	}

	switch cfg.Workload {
	case "affine", "matvec", "mix":
	default:
		fmt.Fprintf(os.Stderr, "edgeload: unknown -workload %q (want affine, matvec or mix)\n", cfg.Workload)
		os.Exit(2)
	}
	wantMatVec := cfg.Workload != "affine"

	if cfg.StockBytes > 0 && cfg.StockBytes < edge.RekeyWithdrawBytes {
		fmt.Fprintf(os.Stderr, "edgeload: -stock %d is below the %d-byte initial withdrawal\n",
			cfg.StockBytes, edge.RekeyWithdrawBytes)
		os.Exit(2)
	}
	if cfg.Control && cfg.Addr != "" {
		fmt.Fprintln(os.Stderr, "edgeload: -control drives the in-process server only (drop -addr)")
		os.Exit(2)
	}
	if cfg.MetricsAddr != "" && cfg.Addr != "" {
		fmt.Fprintln(os.Stderr, "edgeload: -metrics-addr binds the in-process server's debug plane (drop -addr)")
		os.Exit(2)
	}
	if cfg.FaultDrop < 0 || cfg.FaultDrop >= 1 || cfg.FaultDelay < 0 || cfg.FaultDelay >= 1 {
		fmt.Fprintln(os.Stderr, "edgeload: -fault-drop and -fault-delay are probabilities in [0, 1)")
		os.Exit(2)
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		fmt.Fprintln(os.Stderr, "edgeload: -trace-sample is a fraction in [0, 1]")
		os.Exit(2)
	}
	var clientTracer *obs.Tracer
	if cfg.TraceSample > 0 || cfg.TraceOut != "" {
		clientTracer = obs.NewTracer(0, 0)
		if cfg.TraceSample == 0 {
			cfg.TraceSample = 1
		}
	}
	chaos := cfg.FaultDrop > 0 || cfg.FaultDelay > 0
	var inj *faultnet.Injector
	if chaos {
		spec := faultnet.Spec{
			DelayProb: cfg.FaultDelay,
			DelayMin:  200 * time.Microsecond,
			DelayMax:  2 * time.Millisecond,
			DropProb:  cfg.FaultDrop,
		}
		inj = faultnet.New(faultnet.Config{Seed: cfg.FaultSeed, Read: spec, Write: spec})
	}

	// QKD plane: one key centre feeds every client session (and, with
	// -control, the controller's provisioning actuator). Pools are funded
	// before the controller exists so its very first plan — the one
	// Setup admissions are judged against — sees the real key stock.
	kc := qkd.NewKeyCenter()
	// The key-flow ledger attributes every withdrawal to its cause; its
	// snapshot backs /debug/keyledger and the quhe_keyledger_* series.
	ledger := qkd.NewLedger()
	kc.AttachLedger(ledger)
	for i := 0; i < cfg.Clients; i++ {
		// Initial key + rekey headroom (or the exact -stock). Headroom is
		// sized for a fast closed loop: a 2 s run on a quick core can burn
		// ~50 rotations per client at small budgets, which the previous
		// 16-withdrawal headroom underfunded.
		if err := provision(kc, clientID(i), int64(1000+i), 64*edge.RekeyWithdrawBytes, cfg.StockBytes); err != nil {
			fmt.Fprintf(os.Stderr, "edgeload: %v\n", err)
			os.Exit(1)
		}
	}

	addr := cfg.Addr
	var srv *edge.Server
	var ctl *control.Controller
	var obsReg *obs.Registry
	if addr == "" {
		// One registry carries both the server's and (with -control) the
		// controller's series, so a single /metrics page shows the whole
		// loop.
		obsReg = obs.NewRegistry()
		scfg := edge.ServerConfig{
			Model:         edge.Model{Weights: []float64{0.5}, Bias: []float64{0.1}, Matrix: loadMatrix(8), MatrixBias: loadBias(8)},
			Workers:       cfg.Workers,
			QueueDepth:    cfg.QueueDepth,
			RekeyBytes:    cfg.RekeyBytes,
			Obs:           obsReg,
			DebugAddr:     cfg.MetricsAddr,
			KeyLedgerJSON: func() any { return ledger.Snapshot() },
		}
		if cfg.Control {
			network, err := starNetwork(cfg.Clients)
			if err != nil {
				fmt.Fprintf(os.Stderr, "edgeload: network: %v\n", err)
				os.Exit(1)
			}
			ctl, err = control.New(control.Config{
				Network:        network,
				KeyCenter:      kc,
				ClientID:       clientID,
				RouteOf:        routeOf(cfg.Clients),
				BaseRekeyBytes: cfg.RekeyBytes,
				Interval:       250 * time.Millisecond,
				Metrics:        obsReg,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "edgeload: control: %v\n", err)
				os.Exit(1)
			}
			ctl.Start()
			defer ctl.Stop()
			scfg.Control = ctl
		}
		var err error
		srv, err = edge.NewServer("127.0.0.1:0", scfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgeload: server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		addr = srv.Addr()
	}

	clients := make([]*edge.Client, cfg.Clients)
	for i := range clients {
		id := clientID(i)
		dc := edge.DialConfig{
			Profile:     profileFor(i),
			Route:       fmt.Sprintf("route-%d", i+1),
			Tracer:      clientTracer,
			TraceSample: cfg.TraceSample,
		}
		if inj != nil {
			// Chaos mode: every byte crosses the injector, the client runs
			// the full resilience stack (reconnect + resume, replay), and a
			// per-request deadline bounds the worst case.
			dc.Dialer = inj.Dialer(5 * time.Second)
			dc.Reconnect = true
			dc.RequestTimeout = 30 * time.Second
		}
		var c *edge.Client
		var err error
		// The injector can kill a connection mid-Setup; the initial dial
		// retries a few times so the run measures steady-state fault
		// handling, not dial luck.
		for attempt := 0; ; attempt++ {
			c, err = edge.DialQKDWith(addr, id, kc, int64(7+i), dc)
			if err == nil || inj == nil || attempt >= 4 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgeload: dial %s: %v\n", id, err)
			os.Exit(1)
		}
		defer c.Close()
		if wantMatVec {
			// One rotation-key upload per session, before the clock starts,
			// so the measured window is pure matvec serving.
			if c.MatVecDim() == 0 {
				fmt.Fprintf(os.Stderr, "edgeload: server holds no model matrix for %s\n", id)
				os.Exit(1)
			}
			if err := c.EnableMatVec(); err != nil {
				fmt.Fprintf(os.Stderr, "edgeload: rotation keys %s: %v\n", id, err)
				os.Exit(1)
			}
		}
		clients[i] = c
	}
	clientStats := func() (s edge.ClientStats) {
		for _, c := range clients {
			st := c.Stats()
			s.Reconnects += st.Reconnects
			s.Resumes += st.Resumes
			s.Retries += st.Retries
			s.Replays += st.Replays
			s.Keygens += st.Keygens
		}
		return s
	}
	if obsReg != nil {
		// Client-side fault-tolerance series on the same /metrics page the
		// CI chaos smoke scrapes (the server registers quhe_resumes_total).
		obsReg.CounterFunc("quhe_reconnects_total", "client transport reconnects across the load fleet", func() float64 {
			return float64(clientStats().Reconnects)
		})
		obsReg.CounterFunc("quhe_client_replays_total", "in-flight Computes replayed after a resume", func() float64 {
			return float64(clientStats().Replays)
		})
		// Key-flow ledger series by cause (the control plane registers the
		// same series when attached; the registry makes this idempotent).
		for _, cause := range qkd.Causes() {
			cause := cause
			obsReg.CounterFunc("quhe_keyledger_withdrawals_total", "ledgered QKD withdrawals by cause", func() float64 {
				return float64(ledger.CauseWithdrawals(cause))
			}, "cause", cause)
			obsReg.CounterFunc("quhe_keyledger_bytes_total", "ledgered QKD key bytes by cause", func() float64 {
				return float64(ledger.CauseBytes(cause))
			}, "cause", cause)
		}
	}

	rec := &recorder{
		servedBy: make([]atomic.Int64, cfg.Clients),
		availSLO: obs.NewSLOTracker("availability", 0.99),
		latSLO:   obs.NewSLOTracker("latency", 0.99),
	}
	var requests atomic.Int64
	blockCounters := make([]atomic.Uint32, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	payload := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.25
		}
		return v
	}
	vec := payload(cfg.Slots)
	var mvVec []float64
	if wantMatVec {
		mvVec = payload(clients[0].MatVecDim())
	}

	fire := func(ci int) {
		defer wg.Done()
		block := blockCounters[ci].Add(1)
		wl := wlAffine
		switch {
		case cfg.Workload == "matvec":
			wl = wlMatVec
		case cfg.Workload == "mix" && block%2 == 0:
			wl = wlMatVec
		}
		t0 := time.Now()
		var err error
		for attempt := 0; attempt < 2; attempt++ {
			var p *edge.Pending
			if wl == wlMatVec {
				p, err = clients[ci].MatVecAsync(block, mvVec)
			} else {
				p, err = clients[ci].ComputeAsync(block, vec)
			}
			if err != nil {
				break
			}
			_, err = p.Wait()
			// Budget exhaustion triggers one epoch-guarded rekey + retry;
			// concurrent failures collapse into a single rotation.
			if err != nil && serve.CodeOf(err) == serve.CodeRekeyRequired && attempt == 0 {
				if rkErr := clients[ci].RekeyIfEpoch(p.Epoch()); rkErr == nil {
					continue
				}
			}
			break
		}
		rec.record(ci, wl, time.Since(t0), err)
	}

	if cfg.Rate > 0 {
		// Open loop: arrivals at the configured rate, independent of
		// completions — queueing and shedding show up in the numbers.
		const maxOutstanding = 4096
		sem := make(chan struct{}, maxOutstanding)
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		ci := 0
		for now := range ticker.C {
			if now.After(deadline) {
				break
			}
			select {
			case sem <- struct{}{}:
			default:
				rec.shed.Add(1) // generator saturated; count as shed
				requests.Add(1)
				continue
			}
			requests.Add(1)
			wg.Add(1)
			go func(ci int) {
				defer func() { <-sem }()
				fire(ci)
			}(ci)
			ci = (ci + 1) % cfg.Clients
		}
	} else {
		// Closed loop: one outstanding request per client.
		for ci := 0; ci < cfg.Clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					requests.Add(1)
					wg.Add(1)
					fire(ci)
				}
			}(ci)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	lat := rec.lat.Snapshot()

	var rekeys int64
	if srv != nil {
		for i := 0; i < cfg.Clients; i++ {
			if st, ok := srv.SessionStats(fmt.Sprintf("load-%d", i)); ok {
				rekeys += st.Rekeys
			}
		}
	}

	profiles := make(map[string]int64)
	for i, c := range clients {
		profiles[c.Profile()] += rec.servedBy[i].Load()
	}
	workloads := make(map[string]workloadInfo)
	for wl := 0; wl < numWorkloads; wl++ {
		served := rec.wlServed[wl].Load()
		if served == 0 {
			continue
		}
		ws := rec.wlLat[wl].Snapshot()
		workloads[workloadName(wl)] = workloadInfo{
			Served: served,
			P50Ms:  ws.Quantile(0.50) * 1e3,
			P99Ms:  ws.Quantile(0.99) * 1e3,
		}
	}
	stats := clientStats()

	sum := summary{
		Config:     cfg,
		DurationS:  elapsed.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Profiles:   profiles,
		Workloads:  workloads,
		Requests:   requests.Load(),
		Served:     rec.served.Load(),
		Shed:       rec.shed.Load(),
		Denied:     rec.denied.Load(),
		ShedKey:    rec.shedKey.Load(),
		Errors:     rec.errs.Load(),
		Rekeys:     rekeys,
		Reconnects: stats.Reconnects,
		Resumes:    stats.Resumes,
		Replays:    stats.Replays,
		Throughput: float64(rec.served.Load()) / elapsed.Seconds(),
		P50Ms:      lat.Quantile(0.50) * 1e3,
		P90Ms:      lat.Quantile(0.90) * 1e3,
		P99Ms:      lat.Quantile(0.99) * 1e3,
		Histogram:  histogram(lat),
	}
	if lat.Count > 0 {
		sum.MaxMs = lat.Max * 1e3
	}
	if srv != nil && srv.DebugAddr() != "" {
		if m, err := scrapeServerMetrics(srv.DebugAddr()); err == nil {
			sum.ServerMetrics = m
		} else {
			fmt.Fprintf(os.Stderr, "edgeload: metrics scrape: %v\n", err)
		}
	}
	sum.SLO = &sloInfo{
		Availability: rec.availSLO.Attainment(),
		Latency:      rec.latSLO.Attainment(),
		TargetMs:     float64(sloLatencyTarget) / float64(time.Millisecond),
	}
	if cfg.TraceOut != "" {
		traces := clientTracer.Dump()
		if srv != nil {
			if tr := srv.Tracer(); tr != nil {
				traces = append(traces, tr.Dump()...)
			}
		}
		f, err := os.Create(cfg.TraceOut)
		if err == nil {
			err = obs.WriteChromeTraces(f, traces)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgeload: trace dump: %v\n", err)
		}
	}
	if ctl != nil {
		p := ctl.Plan()
		sum.Plan = &planInfo{
			Seq:           p.Seq,
			RouteLambda:   p.RouteLambda,
			RouteProfile:  p.RouteProfile,
			DefaultBudget: p.DefaultRekeyBudget,
			AdmitCapacity: p.AdmitCapacity,
		}
	}

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgeload: marshal: %v\n", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "edgeload: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
	if sum.Errors > 0 {
		os.Exit(1)
	}
}
