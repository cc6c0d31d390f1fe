// Benchmarks regenerating every table and figure of the QuHE paper's
// evaluation section, plus the ablation benches called out in DESIGN.md.
// Each figure/table bench prints its rows/series once (via printOnce) so a
// plain `go test -bench=.` run reproduces the paper's outputs; the heavier
// experiments use reduced sizes here — cmd/quhe runs them at paper scale.
package quhe_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"quhe/internal/core"
	"quhe/internal/edge"
	"quhe/internal/experiments"
	"quhe/internal/faultnet"
	"quhe/internal/he/ckks"
	"quhe/internal/he/ring"
	"quhe/internal/obs"
	"quhe/internal/qkd"
	"quhe/internal/serve"
	"quhe/internal/transcipher"
)

var (
	benchCfgOnce sync.Once
	benchCfg     *core.Config

	printGuards sync.Map
)

func paperCfg(b *testing.B) *core.Config {
	b.Helper()
	benchCfgOnce.Do(func() {
		benchCfg = core.PaperConfig(1)
	})
	return benchCfg
}

// printOnce runs the printer exactly once per named output across all bench
// iterations, so tables appear in bench output without repetition.
func printOnce(name string, print func()) {
	once, _ := printGuards.LoadOrStore(name, &sync.Once{})
	once.(*sync.Once).Do(print)
}

// --- Figure 3: optimality across random initializations -------------------

func BenchmarkFig3Optimality(b *testing.B) {
	cfg := paperCfg(b)
	const samples = 10 // cmd/quhe -exp fig3 runs the paper's 100
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(cfg, samples, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary.Mean, "mean-objective")
		b.ReportMetric(100*res.GoodOrBetter, "good-or-better-%")
		printOnce("fig3", func() {
			fmt.Printf("\nFig. 3 (%d samples): max %.2f min %.2f mean %.2f  very-good %.0f%%  good+ %.0f%%\n",
				samples, res.Summary.Max, res.Summary.Min, res.Summary.Mean,
				100*res.VeryGood, 100*res.GoodOrBetter)
			experiments.RenderHistogram(os.Stdout, res.Edges, res.Buckets)
		})
	}
}

// --- Figure 4: per-stage convergence ---------------------------------------

func BenchmarkFig4Convergence(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stage1Iters), "s1-iters")
		b.ReportMetric(float64(res.Stage2Iters), "s2-nodes")
		b.ReportMetric(float64(res.Stage3Iters), "s3-newton")
		printOnce("fig4", func() {
			fmt.Println()
			experiments.RenderTrace(os.Stdout, "Fig. 4(a) Stage-1 objective", res.Stage1, 12)
			experiments.RenderTrace(os.Stdout, "Fig. 4(b) Stage-2 incumbent", res.Stage2, 12)
			experiments.RenderTrace(os.Stdout, "Fig. 4(c) Stage-3 POBJ", res.Stage3POBJ, 12)
			experiments.RenderTrace(os.Stdout, "Fig. 4(d) Stage-3 duality gap", res.Stage3Gap, 12)
		})
	}
}

// --- Figure 5(a): stage calls and runtime ----------------------------------

func BenchmarkFig5aStageAccounting(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Total.Seconds(), "total-s")
		printOnce("fig5a", func() {
			fmt.Printf("\nFig. 5(a): calls S1=%d S2=%d S3=%d  runtime %.2fs  objective %.3f\n",
				res.Calls[0], res.Calls[1], res.Calls[2], res.Total.Seconds(), res.Objective)
		})
	}
}

// --- Figures 5(b)/(c) and Tables V/VI: Stage-1 methods ---------------------

func BenchmarkFig5bcStage1Methods(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		comps, err := experiments.Stage1Methods(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig5bc", func() {
			fmt.Println("\nFig. 5(b)/(c): Stage-1 methods")
			for _, c := range comps {
				fmt.Printf("  %-5s runtime %8.3fs  objective %.4f\n",
					c.Method, c.Runtime.Seconds(), c.Objective)
			}
		})
	}
}

func BenchmarkTableVPhi(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table5(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table5", func() {
			fmt.Println()
			t.Render(os.Stdout)
		})
	}
}

func BenchmarkTableVIW(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table6(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table6", func() {
			fmt.Println()
			t.Render(os.Stdout)
		})
	}
}

// --- Figure 5(d): whole-procedure comparison --------------------------------

func BenchmarkFig5dMethodComparison(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5d(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig5d", func() {
			fmt.Println("\nFig. 5(d): method comparison")
			for _, r := range rows {
				fmt.Printf("  %-5s energy %10.1fJ  delay %9.1fs  U_msl %7.2f  objective %8.3f\n",
					r.Method, r.Energy, r.Delay, r.UMSL, r.Objective)
			}
		})
	}
}

// --- Figure 6: resource sweeps ----------------------------------------------

func benchFig6(b *testing.B, which experiments.Fig6Which) {
	cfg := paperCfg(b)
	const points = 3 // cmd/quhe -exp fig6 runs the paper's 5-point grid
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg, which, points, 0)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig6-"+which.String(), func() {
			fmt.Println()
			experiments.RenderSeries(os.Stdout, res)
		})
	}
}

func BenchmarkFig6aBandwidthSweep(b *testing.B) { benchFig6(b, experiments.Fig6Bandwidth) }
func BenchmarkFig6bPowerSweep(b *testing.B)     { benchFig6(b, experiments.Fig6Power) }
func BenchmarkFig6cClientCPUSweep(b *testing.B) { benchFig6(b, experiments.Fig6ClientCPU) }
func BenchmarkFig6dServerCPUSweep(b *testing.B) { benchFig6(b, experiments.Fig6ServerCPU) }

// --- Per-stage solver benches ------------------------------------------------

func BenchmarkStage1Barrier(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage1(core.Stage1Options{Method: core.Stage1Barrier}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage2BranchAndBound(b *testing.B) {
	cfg := paperCfg(b)
	v := stage1Vars(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage2(v, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage3FractionalProgramming(b *testing.B) {
	cfg := paperCfg(b)
	v := stage1Vars(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage3(v, core.Stage3Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuHEFullProcedure(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveQuHE(core.QuHEOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §8) --------------------------------------------------

// BenchmarkAblationStage2Exhaustive measures Stage 2 without branch & bound
// (full 3^N enumeration) for comparison with BenchmarkStage2BranchAndBound.
func BenchmarkAblationStage2Exhaustive(b *testing.B) {
	cfg := paperCfg(b)
	v := stage1Vars(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage2(v, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStage1GradientDescent measures the paper's GD baseline at
// its full iteration budget — the Fig. 5(b) runtime gap versus the barrier.
func BenchmarkAblationStage1GradientDescent(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage1(core.Stage1Options{Method: core.Stage1GD}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStatedAlphaMSL runs the Fig. 5(d) comparison under the
// paper's stated (uncalibrated) α_msl = 1e-2, demonstrating why the
// calibrated default is needed: OLAA collapses onto AA.
func BenchmarkAblationStatedAlphaMSL(b *testing.B) {
	cfg := paperCfg(b).Clone()
	cfg.AlphaMSL = core.StatedAlphaMSL
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5d(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation-alpha", func() {
			fmt.Println("\nAblation (stated α_msl = 1e-2):")
			for _, r := range rows {
				fmt.Printf("  %-5s U_msl %7.2f  objective %8.3f\n", r.Method, r.UMSL, r.Objective)
			}
		})
	}
}

// --- Serving runtime: worker-pool scaling (internal/serve) -----------------

type serveSweepPoint struct {
	Workers      int     `json:"workers"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
	P50Ms        float64 `json:"latency_ms_p50"`
	P99Ms        float64 `json:"latency_ms_p99"`
	SpeedupVs1   float64 `json:"speedup_vs_1_worker"`
}

type serveSweepReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	// Multicore records whether the runner could exhibit worker scaling
	// at all: on a 1-core runner the sweep is necessarily flat and its
	// speedup column is not evidence against the serving runtime.
	Multicore bool              `json:"multicore"`
	Blocks    int               `json:"blocks_per_run"`
	Sweep     []serveSweepPoint `json:"sweep"`
}

// BenchmarkServeWorkerSweep measures the pooled serving path — session
// snapshot → scheduler → evaluator pool → transciphering — at increasing
// worker counts, the aggregate-throughput claim of the serving runtime.
// Evaluator memory is bounded by the pool, so the sweep also demonstrates
// N workers serving one session's stream without per-session evaluators.
// The sweep is written to BENCH_serve.json so serving-throughput
// trajectories can be compared across PRs. Scaling beyond 1× requires
// GOMAXPROCS > 1 (the report records it).
func BenchmarkServeWorkerSweep(b *testing.B) {
	ctx, err := ckks.NewContext(edge.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	cipher, err := transcipher.New(ctx, edge.KeyLen)
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 3)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	clientEv := ckks.NewEvaluator(ctx, 4)
	key, err := cipher.DeriveKey([]byte("bench-material"))
	if err != nil {
		b.Fatal(err)
	}
	encKey, err := cipher.EncryptKey(clientEv, pk, key)
	if err != nil {
		b.Fatal(err)
	}
	nonce := []byte("bench-serve")
	sess := serve.NewSession("bench", "", pk, rlk, encKey, nonce)
	weights := []float64{0.5}
	bias := []float64{0.1}

	const blocks = 32
	masked := make([][]float64, blocks)
	data := make([]float64, cipher.Slots())
	for i := range data {
		data[i] = 0.25
	}
	for i := range masked {
		m, err := cipher.Mask(key, nonce, uint32(i), data)
		if err != nil {
			b.Fatal(err)
		}
		masked[i] = m
	}

	workerCounts := []int{1, 2, 4, 8}
	report := serveSweepReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Multicore:  runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1,
		Blocks:     blocks,
	}
	for i := 0; i < b.N; i++ {
		report.Sweep = report.Sweep[:0]
		for _, workers := range workerCounts {
			pool := serve.NewEvalPool(ctx, workers, 1, func(int) any { return cipher.NewScratch() })
			sched := serve.NewScheduler(pool, blocks)
			lats := make([]float64, blocks)
			var wg sync.WaitGroup
			start := time.Now()
			for j := 0; j < blocks; j++ {
				j := j
				wg.Add(1)
				submitted := time.Now()
				err := sched.Submit(func(w *serve.Worker) {
					defer wg.Done()
					ek, nn, _ := sess.Keys()
					sc, _ := w.Scratch.(*transcipher.Scratch)
					if _, err := cipher.TranscipherAffineWith(sc, w.Ev, sess.RLK, ek, nn,
						uint32(j), masked[j], weights, bias); err != nil {
						b.Error(err)
						return
					}
					sess.RecordBlock(int64(8 * len(masked[j])))
					lats[j] = float64(time.Since(submitted)) / float64(time.Millisecond)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
			elapsed := time.Since(start)
			sched.Close()
			sort.Float64s(lats)
			pt := serveSweepPoint{
				Workers:      workers,
				BlocksPerSec: blocks / elapsed.Seconds(),
				P50Ms:        lats[blocks/2],
				P99Ms:        lats[blocks-1],
			}
			if len(report.Sweep) > 0 {
				pt.SpeedupVs1 = pt.BlocksPerSec / report.Sweep[0].BlocksPerSec
			} else {
				pt.SpeedupVs1 = 1
			}
			report.Sweep = append(report.Sweep, pt)
		}
	}
	last := report.Sweep[len(report.Sweep)-1]
	b.ReportMetric(last.BlocksPerSec, "blocks/s@8w")
	b.ReportMetric(last.SpeedupVs1, "speedup@8w")
	if !report.Multicore && last.SpeedupVs1 < 1.5 {
		// Flat scaling on a 1-core runner is expected, not a regression:
		// log it (don't fail) so readers of the bench output and
		// BENCH_serve.json know the speedup column is meaningless here.
		b.Logf("worker scaling is flat (%.2fx @ %d workers) on a single-core runner "+
			"(GOMAXPROCS=%d, NumCPU=%d); see the multicore flag in BENCH_serve.json",
			last.SpeedupVs1, last.Workers, report.GOMAXPROCS, report.NumCPU)
	}
	printOnce("serve-sweep", func() {
		fmt.Printf("\nServing worker sweep (GOMAXPROCS=%d, %d blocks):\n", report.GOMAXPROCS, blocks)
		for _, pt := range report.Sweep {
			fmt.Printf("  %d workers: %8.1f blocks/s  p50 %6.2fms  p99 %6.2fms  %.2fx\n",
				pt.Workers, pt.BlocksPerSec, pt.P50Ms, pt.P99Ms, pt.SpeedupVs1)
		}
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Printf("serve-sweep: marshal: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_serve.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Printf("serve-sweep: write: %v\n", err)
		}
	})
}

// --- RNS residue tower: limb × worker sweep (internal/he/ring, ckks) --------

type rnsSweepPoint struct {
	Level      int     `json:"level"`
	Limbs      int     `json:"limbs"`
	Workers    int     `json:"workers"`
	NsPerOp    float64 `json:"ns_per_op"`
	SpeedupVs1 float64 `json:"speedup_vs_1_worker"`
}

type rnsSweepReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	// Multicore records whether the runner could exhibit per-limb NTT
	// scaling at all: a 1-core sweep is necessarily flat and its speedup
	// column is not evidence against the residue tower.
	Multicore bool            `json:"multicore"`
	LogN      int             `json:"logn"`
	Sweep     []rnsSweepPoint `json:"sweep"`
}

// BenchmarkRNS sweeps MulRelin+Rescale over chain length (limbs) and ring
// worker-pool size — the residue tower's per-limb parallelism claim. Each
// point is one homomorphic multiply at the given level: per-limb NTTs,
// hybrid key switch over Q·P, exact RNS rescale. The matrix lands in
// BENCH_rns.json so limb-scaling trajectories are comparable across PRs.
// Scaling beyond 1x requires GOMAXPROCS > 1 (the report records it).
func BenchmarkRNS(b *testing.B) {
	params, err := ckks.NewParams(12, 60, 50, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 17)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	ev := ckks.NewEvaluator(ctx, 18)
	enc := ckks.NewEncoder(ctx)
	vals := make([]float64, ctx.Params.Slots())
	for i := range vals {
		vals[i] = 0.9 - 0.001*float64(i%5)
	}
	pt, err := enc.EncodeReal(vals, ctx.Params.Scale())
	if err != nil {
		b.Fatal(err)
	}

	// A ladder of ciphertexts, one per level ≥ 1, built by squaring down
	// from a fresh encryption; each sweep point re-multiplies its rung.
	cts := make(map[int]*ckks.Ciphertext)
	cur := ev.Encrypt(pk, pt)
	cts[cur.Level] = cur
	for cur.Level > 1 {
		sq, err := ev.MulRelin(cur, cur, rlk)
		if err != nil {
			b.Fatal(err)
		}
		cur, err = ev.Rescale(sq)
		if err != nil {
			b.Fatal(err)
		}
		cts[cur.Level] = cur
	}

	report := rnsSweepReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Multicore:  runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1,
		LogN:       params.LogN,
	}
	prevPar := ring.Parallelism()
	defer ring.SetParallelism(prevPar)
	workerCounts := []int{1, 2, 4, 8}
	const opsPerPoint = 4
	var speedupL4 float64
	for i := 0; i < b.N; i++ {
		report.Sweep = report.Sweep[:0]
		for level := ctx.MaxLevel(); level >= 1; level-- {
			var ns1 float64
			for _, workers := range workerCounts {
				ring.SetParallelism(workers)
				ct := cts[level]
				start := time.Now()
				for op := 0; op < opsPerPoint; op++ {
					sq, err := ev.MulRelin(ct, ct, rlk)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ev.Rescale(sq); err != nil {
						b.Fatal(err)
					}
				}
				pt := rnsSweepPoint{
					Level:   level,
					Limbs:   level + 1,
					Workers: workers,
					NsPerOp: float64(time.Since(start).Nanoseconds()) / opsPerPoint,
				}
				if workers == 1 {
					ns1 = pt.NsPerOp
				}
				pt.SpeedupVs1 = ns1 / pt.NsPerOp
				report.Sweep = append(report.Sweep, pt)
				if level == 4 && workers == 4 {
					speedupL4 = pt.SpeedupVs1
				}
			}
		}
	}
	ring.SetParallelism(prevPar)
	b.ReportMetric(speedupL4, "speedup-L4@4w")
	if !report.Multicore {
		// A flat sweep on a single-core runner is expected, not a
		// regression: log it so readers of the bench output and
		// BENCH_rns.json know the speedup column is meaningless here.
		b.Logf("per-limb scaling is flat by construction on a single-core runner "+
			"(GOMAXPROCS=%d, NumCPU=%d); see the multicore flag in BENCH_rns.json",
			report.GOMAXPROCS, report.NumCPU)
	} else if speedupL4 < 2.5 {
		b.Logf("WARNING: MulRelin+Rescale at level 4 scaled %.2fx from 1 to 4 workers, "+
			"below the 2.5x target (GOMAXPROCS=%d, NumCPU=%d)",
			speedupL4, report.GOMAXPROCS, report.NumCPU)
	}
	printOnce("rns-sweep", func() {
		fmt.Printf("\nRNS limb × worker sweep (logN=%d, GOMAXPROCS=%d):\n", params.LogN, report.GOMAXPROCS)
		for _, pt := range report.Sweep {
			fmt.Printf("  L=%d (%d limbs) %d workers: %9.0fns/op  %.2fx\n",
				pt.Level, pt.Limbs, pt.Workers, pt.NsPerOp, pt.SpeedupVs1)
		}
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Printf("rns-sweep: marshal: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_rns.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Printf("rns-sweep: write: %v\n", err)
		}
	})
}

// --- Security-profile mix: per-profile latency/utility under mixed λ --------

type profileMixReport struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	NumCPU     int  `json:"numcpu"`
	Multicore  bool `json:"multicore"`
	experiments.ProfileMixResult
}

// BenchmarkProfileMix serves a mixed-security workload — sessions on
// every registry profile side by side, each on its own per-profile
// evaluator pool and independently keyed context — and writes the
// per-profile latency, utility and cost-coefficient comparison to
// BENCH_profile.json. The coefficient check is the actuation contract:
// the per-op cost the controller plans with (calibrated registry
// coefficients) must track measured per-op latency within 2x.
func BenchmarkProfileMix(b *testing.B) {
	report := profileMixReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Multicore:  runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.ProfileMix(experiments.ProfileMixOptions{})
		if err != nil {
			b.Fatal(err)
		}
		report.ProfileMixResult = res
	}
	for _, p := range report.Profiles {
		if p.Errors > 0 {
			b.Fatalf("profile %s served wrong results (%d errors)", p.Profile, p.Errors)
		}
	}
	last := report.Profiles[len(report.Profiles)-1]
	b.ReportMetric(last.MeanMs, "ms/op@maxλ")
	b.ReportMetric(report.TotalUtility, "mix-utility")
	if !report.CoeffWithin2x {
		b.Logf("WARNING: a planning coefficient fell outside the 2x band of measured latency; see BENCH_profile.json")
	}
	printOnce("profile-mix", func() {
		fmt.Printf("\nSecurity-profile mix (per-profile pools, one server):\n")
		for _, p := range report.Profiles {
			fmt.Printf("  %-12s λ=%6.0fk msl %6.1f  served %2d  mean %7.2fms  coeff %7.2fms (%.2fx measured)  utility %7.2f\n",
				p.Profile, p.Lambda/1024, p.MSL, p.Served, p.MeanMs, p.CoeffMs, p.CoeffOverMeasured, p.Utility)
		}
		fmt.Printf("  coefficients within 2x of measured: %v\n", report.CoeffWithin2x)
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile report: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_profile.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "profile report: %v\n", err)
		}
	})
}

func stage1Vars(b *testing.B, cfg *core.Config) core.Variables {
	b.Helper()
	v, err := cfg.DefaultVariables()
	if err != nil {
		b.Fatal(err)
	}
	s1, err := cfg.SolveStage1(core.Stage1Options{})
	if err != nil {
		b.Fatal(err)
	}
	v.Phi, v.W = s1.Phi, s1.W
	return v
}

// BenchmarkAblationStage1ProjGrad measures the projected-gradient ablation
// solver for Stage 1 (DESIGN.md ablation #3) against BenchmarkStage1Barrier.
func BenchmarkAblationStage1ProjGrad(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage1(core.Stage1Options{Method: core.Stage1ProjGrad}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBarrierVsSimAnnealing measures the simulated-annealing
// baseline at its default budget for the Fig. 5(b) runtime comparison.
func BenchmarkAblationStage1SimAnnealing(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage1(core.Stage1Options{Method: core.Stage1SA}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Closed-loop control plane: dynamic vs static budgets -------------------

type controlLoopReport struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	NumCPU     int  `json:"numcpu"`
	Multicore  bool `json:"multicore"`
	experiments.ControlLoopResult
}

// BenchmarkControlLoop runs the closed-loop serving experiment — the same
// finite-key workload under the static per-key budget constant and under
// internal/control's online re-planning — and writes the comparison to
// BENCH_control.json, so the utility gain of dynamic budgets is measured
// across PRs rather than asserted. See experiments.ControlLoop for the
// scenario and the utility score (Eq. 17's security and delay terms).
func BenchmarkControlLoop(b *testing.B) {
	report := controlLoopReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Multicore:  runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.ControlLoop(experiments.ControlLoopOptions{})
		if err != nil {
			b.Fatal(err)
		}
		report.ControlLoopResult = res
	}
	b.ReportMetric(float64(report.Dynamic.Served), "served-dynamic")
	b.ReportMetric(float64(report.Static.Served), "served-static")
	b.ReportMetric(report.UtilityGain, "utility-gain")
	printOnce("control-loop", func() {
		fmt.Printf("\nClosed-loop control (finite key stock):\n")
		for _, sc := range []experiments.ControlScenario{report.Static, report.Dynamic} {
			fmt.Printf("  %-8s served %3d  stranded %3d  denied %3d  rekeys %2d  stock-left %4dB  budget %9dB  utility %8.2f\n",
				sc.Name, sc.Served, sc.Stranded, sc.Denied, sc.Rekeys, sc.KeyBytesLeft, sc.RekeyBudget, sc.Utility)
		}
		fmt.Printf("  utility gain (dynamic − static): %.2f over %d plans\n", report.UtilityGain, report.PlanSeq)
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "control report: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_control.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "control report: %v\n", err)
		}
	})
}

// --- Observability overhead: instrumented vs bare serve hot path ------------

type obsOverheadReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	Blocks     int `json:"blocks_per_side"`
	// P50 of the client-observed per-block latency over the full v3 serve
	// path, with the observability substrate off (DisableObs) and on
	// (default: registry, per-stage histograms, block tracer).
	P50OffMs    float64 `json:"p50_ms_obs_off"`
	P50OnMs     float64 `json:"p50_ms_obs_on"`
	OverheadPct float64 `json:"overhead_pct_p50"`
	// Target documents the acceptance bound: instrumentation must stay
	// within ~2% of the bare path at p50. Logged, not failed — per-block
	// work is milliseconds of transciphering, so run-to-run noise on a
	// shared runner can exceed the bound without the instrumentation
	// being at fault.
	Target string `json:"target"`
}

// BenchmarkObsOverhead measures what full observability costs on the
// serve hot path: the same v3 compute stream against a server with
// DisableObs and against the default instrumented one (per-stage
// histograms, per-profile eval latency, wire counters, block tracer,
// SLO trackers, plus a client-side tracer sampling computes at 1% —
// the deployment posture the ≤2% budget is defined against).
// The report lands in BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	const (
		warmup = 4
		blocks = 32
	)
	run := func(disable bool) []float64 {
		srv, err := edge.NewServer("127.0.0.1:0", edge.ServerConfig{
			Model:      edge.Model{Weights: []float64{0.5}, Bias: []float64{0.1}},
			DisableObs: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		var cfg edge.DialConfig
		if !disable {
			cfg.Tracer = obs.NewTracer(0, 0)
			cfg.TraceSample = 0.01
		}
		client, err := edge.DialWith(srv.Addr(), "obs-bench", []byte("bench-material"), 5, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		data := make([]float64, 16)
		for i := range data {
			data[i] = 0.25
		}
		lats := make([]float64, 0, blocks)
		for i := 0; i < warmup+blocks; i++ {
			t0 := time.Now()
			if _, err := client.Compute(uint32(i), data); err != nil {
				b.Fatal(err)
			}
			if i >= warmup {
				lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
		sort.Float64s(lats)
		return lats
	}
	report := obsOverheadReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Blocks:     blocks,
		Target:     "p50 overhead ≤ 2%",
	}
	for i := 0; i < b.N; i++ {
		off := run(true)
		on := run(false)
		report.P50OffMs = off[len(off)/2]
		report.P50OnMs = on[len(on)/2]
		report.OverheadPct = (report.P50OnMs - report.P50OffMs) / report.P50OffMs * 100
	}
	b.ReportMetric(report.P50OffMs, "p50ms-off")
	b.ReportMetric(report.P50OnMs, "p50ms-on")
	b.ReportMetric(report.OverheadPct, "overhead-%")
	if report.OverheadPct > 2 {
		b.Logf("observability overhead %.2f%% at p50 exceeds the 2%% target "+
			"(off %.2fms, on %.2fms) — logged, not failed; rerun on a quiet machine before acting",
			report.OverheadPct, report.P50OffMs, report.P50OnMs)
	}
	printOnce("obs-overhead", func() {
		fmt.Printf("\nObservability overhead (%d blocks/side):\n", blocks)
		fmt.Printf("  obs off: p50 %6.2fms\n  obs on:  p50 %6.2fms  (%+.2f%%)\n",
			report.P50OffMs, report.P50OnMs, report.OverheadPct)
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs-overhead: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_obs.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "obs-overhead: %v\n", err)
		}
	})
}

// --- Fault tolerance: resilience overhead and the cost of a resume ----------

type faultToleranceReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	Blocks     int `json:"blocks_per_side"`
	// P50 of the client-observed per-block latency over the v3 serve path
	// with the fault-tolerance machinery off (plain dial) and on
	// (reconnect armed, resume negotiated, request deadlines) — both runs
	// fault-free, so the delta is the bookkeeping the resilience layer
	// adds to the hot path.
	P50PlainMs     float64 `json:"p50_ms_plain"`
	P50ResilientMs float64 `json:"p50_ms_resilient"`
	OverheadPct    float64 `json:"overhead_pct_p50"`
	// Target documents the acceptance bound: fault-free overhead must stay
	// within ~2% at p50. Logged, not failed — run-to-run noise on a shared
	// runner can exceed the bound without the machinery being at fault.
	Target string `json:"target"`
	// Resume cycle: a killed connection re-attached by the resume
	// handshake must cost zero HE key generations and zero QKD
	// withdrawals; ResumeMs is the client-observed latency of the compute
	// that rode through the kill (reconnect + resume + replay included).
	ResumeKeygens     int64   `json:"resume_keygens"`
	ResumeWithdrawals int64   `json:"resume_withdrawals"`
	ResumeMs          float64 `json:"resume_ms"`
	Reconnects        int64   `json:"reconnects"`
	Replays           int64   `json:"replays"`
}

// BenchmarkFaultTolerance measures what the PR 8 fault-tolerance layer
// costs when nothing fails — the same v3 compute stream with and without
// reconnect/resume armed — and what one kill-and-resume cycle costs in key
// material (must be zero keygens, zero withdrawals) and latency. The
// report lands in BENCH_faults.json.
func BenchmarkFaultTolerance(b *testing.B) {
	const (
		warmup = 4
		blocks = 32
	)
	serverCfg := func() edge.ServerConfig {
		return edge.ServerConfig{
			Model:        edge.Model{Weights: []float64{0.5}, Bias: []float64{0.1}},
			ResumeWindow: 10 * time.Second,
		}
	}
	run := func(dcfg edge.DialConfig) []float64 {
		srv, err := edge.NewServer("127.0.0.1:0", serverCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, err := edge.DialWith(srv.Addr(), "fault-bench", []byte("bench-material"), 5, dcfg)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		data := make([]float64, 16)
		for i := range data {
			data[i] = 0.25
		}
		lats := make([]float64, 0, blocks)
		for i := 0; i < warmup+blocks; i++ {
			t0 := time.Now()
			if _, err := client.Compute(uint32(i), data); err != nil {
				b.Fatal(err)
			}
			if i >= warmup {
				lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
		sort.Float64s(lats)
		return lats
	}
	resumeCycle := func() (keygens, withdrawals, reconnects, replays int64, resumeMs float64) {
		srv, err := edge.NewServer("127.0.0.1:0", serverCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		kc := qkd.NewKeyCenter()
		if err := kc.Provision("fault-bench", 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := kc.RunExchange("fault-bench", 0.97, 8192, 5); err != nil {
			b.Fatal(err)
		}
		inj := faultnet.New(faultnet.Config{Seed: 7}) // zero faults: pure kill switch
		client, err := edge.DialQKDWith(srv.Addr(), "fault-bench", kc, 9, edge.DialConfig{
			Dialer:         inj.Dialer(2 * time.Second),
			Reconnect:      true,
			RequestTimeout: 15 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		data := []float64{0.25}
		for i := 0; i < warmup; i++ {
			if _, err := client.Compute(uint32(i), data); err != nil {
				b.Fatal(err)
			}
		}
		kBefore := client.Stats().Keygens
		wBefore := kc.Counters().Withdrawals
		if inj.CloseAll() == 0 {
			b.Fatal("no live connection to kill")
		}
		t0 := time.Now()
		if _, err := client.Compute(uint32(warmup), data); err != nil {
			b.Fatal(err)
		}
		resumeMs = float64(time.Since(t0)) / float64(time.Millisecond)
		st := client.Stats()
		return st.Keygens - kBefore, kc.Counters().Withdrawals - wBefore,
			st.Reconnects, st.Replays, resumeMs
	}
	report := faultToleranceReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Blocks:     blocks,
		Target:     "fault-free p50 overhead ≤ 2%; resume costs 0 keygens, 0 QKD withdrawals",
	}
	for i := 0; i < b.N; i++ {
		plain := run(edge.DialConfig{})
		resilient := run(edge.DialConfig{
			Reconnect:      true,
			RequestTimeout: 30 * time.Second,
		})
		report.P50PlainMs = plain[len(plain)/2]
		report.P50ResilientMs = resilient[len(resilient)/2]
		report.OverheadPct = (report.P50ResilientMs - report.P50PlainMs) / report.P50PlainMs * 100
		report.ResumeKeygens, report.ResumeWithdrawals,
			report.Reconnects, report.Replays, report.ResumeMs = resumeCycle()
	}
	b.ReportMetric(report.P50PlainMs, "p50ms-plain")
	b.ReportMetric(report.P50ResilientMs, "p50ms-resilient")
	b.ReportMetric(report.OverheadPct, "overhead-%")
	b.ReportMetric(report.ResumeMs, "resume-ms")
	if report.OverheadPct > 2 {
		b.Logf("fault-tolerance overhead %.2f%% at p50 exceeds the 2%% target "+
			"(plain %.2fms, resilient %.2fms) — logged, not failed; rerun on a quiet machine before acting",
			report.OverheadPct, report.P50PlainMs, report.P50ResilientMs)
	}
	if report.ResumeKeygens != 0 || report.ResumeWithdrawals != 0 {
		b.Fatalf("resume cost key material: %d keygens, %d QKD withdrawals (want 0, 0)",
			report.ResumeKeygens, report.ResumeWithdrawals)
	}
	printOnce("fault-tolerance", func() {
		fmt.Printf("\nFault tolerance (%d blocks/side):\n", blocks)
		fmt.Printf("  plain:     p50 %6.2fms\n  resilient: p50 %6.2fms  (%+.2f%%)\n",
			report.P50PlainMs, report.P50ResilientMs, report.OverheadPct)
		fmt.Printf("  resume:    %6.2fms, %d keygens, %d QKD withdrawals, %d reconnects, %d replays\n",
			report.ResumeMs, report.ResumeKeygens, report.ResumeWithdrawals, report.Reconnects, report.Replays)
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault-tolerance: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_faults.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fault-tolerance: %v\n", err)
		}
	})
}

// --- Rotation kernel: hoisted BSGS vs naive diagonal matvec ---------------

type rotationsPoint struct {
	N                int     `json:"n"`
	HoistedRotations int     `json:"hoisted_rotations"`
	NaiveRotations   int     `json:"naive_rotations"`
	HoistedNsPerOp   float64 `json:"hoisted_ns_per_op"`
	NaiveNsPerOp     float64 `json:"naive_ns_per_op"`
	Speedup          float64 `json:"speedup"`
}

type rotationsReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"numcpu"`
	LogN       int              `json:"logn"`
	Levels     int              `json:"levels"`
	Sweep      []rotationsPoint `json:"sweep"`
	// SpeedupN64 is the pinned acceptance number: hoisted-BSGS over
	// naive rotate-per-diagonal at n=64, target ≥ 3x.
	SpeedupN64 float64 `json:"speedup_n64"`
}

// BenchmarkRotations pins the tentpole's performance claim: the hoisted
// BSGS packed matrix–vector kernel against the naive rotate-per-diagonal
// evaluation of the same pre-encoded plan. Both paths share diagonal
// encoding cost, so the gap isolates rotation work — O(n) full
// key-switches naive vs O(√n) with a shared hoisted decomposition. The
// sweep lands in BENCH_rotations.json; the n=64 speedup is the gated
// acceptance number (single-threaded arithmetic, so the gate holds on
// one-core runners too).
func BenchmarkRotations(b *testing.B) {
	params, err := ckks.NewParams(12, 60, 50, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 41)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	ev := ckks.NewEvaluator(ctx, 42)
	enc := ckks.NewEncoder(ctx)

	dims := []int{16, 64}
	// One key set covers every sweep point: the BSGS sets plus the naive
	// path's full 1..n−1 diagonal rotations.
	rotSet := map[int]bool{}
	for _, n := range dims {
		for _, r := range ckks.BSGSRotations(n) {
			rotSet[r] = true
		}
		for d := 1; d < n; d++ {
			rotSet[d] = true
		}
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	gks := kg.GenGaloisKeys(sk, rots)

	level := ctx.MaxLevel()
	report := rotationsReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		LogN:       params.LogN,
		Levels:     level + 1,
	}
	const opsPerPoint = 3
	for i := 0; i < b.N; i++ {
		report.Sweep = report.Sweep[:0]
		for _, n := range dims {
			m := make([][]float64, n)
			bias := make([]float64, n)
			for r := range m {
				m[r] = make([]float64, n)
				for c := range m[r] {
					if r == c {
						m[r][c] = 0.5
					} else {
						m[r][c] = 0.25 / float64(n)
					}
				}
				bias[r] = 0.01 * float64(r%4)
			}
			plan, err := ev.NewMatVecPlan(m, bias, level, 0)
			if err != nil {
				b.Fatal(err)
			}
			naive, err := ev.NewMatVecNaivePlan(m, bias, level, 0)
			if err != nil {
				b.Fatal(err)
			}
			vals := make([]float64, ctx.Params.Slots())
			for j := range vals {
				vals[j] = 0.25 + 0.001*float64(j%n)
			}
			pt, err := enc.EncodeReal(vals, ctx.Params.Scale())
			if err != nil {
				b.Fatal(err)
			}
			ct := ev.Encrypt(pk, pt)
			out := ctx.NewCiphertext(level)

			start := time.Now()
			for op := 0; op < opsPerPoint; op++ {
				if err := ev.MatVecInto(plan, ct, gks, out); err != nil {
					b.Fatal(err)
				}
			}
			hoistedNs := float64(time.Since(start).Nanoseconds()) / opsPerPoint

			start = time.Now()
			for op := 0; op < opsPerPoint; op++ {
				if err := ev.MatVecNaiveInto(naive, ct, gks, out); err != nil {
					b.Fatal(err)
				}
			}
			naiveNs := float64(time.Since(start).Nanoseconds()) / opsPerPoint

			pt2 := rotationsPoint{
				N:                n,
				HoistedRotations: len(plan.Rotations()),
				NaiveRotations:   n - 1,
				HoistedNsPerOp:   hoistedNs,
				NaiveNsPerOp:     naiveNs,
				Speedup:          naiveNs / hoistedNs,
			}
			report.Sweep = append(report.Sweep, pt2)
			if n == 64 {
				report.SpeedupN64 = pt2.Speedup
			}
		}
	}
	b.ReportMetric(report.SpeedupN64, "speedup-n64")
	if report.SpeedupN64 < 3 {
		b.Logf("WARNING: hoisted BSGS matvec at n=64 is %.2fx over naive, below the 3x target",
			report.SpeedupN64)
	}
	printOnce("rotations", func() {
		fmt.Printf("\nHoisted BSGS vs naive matvec (logN=%d, L=%d):\n", params.LogN, level)
		for _, pt := range report.Sweep {
			fmt.Printf("  n=%3d: hoisted %9.0fns (%2d rots)  naive %9.0fns (%2d rots)  %.2fx\n",
				pt.N, pt.HoistedNsPerOp, pt.HoistedRotations, pt.NaiveNsPerOp, pt.NaiveRotations, pt.Speedup)
		}
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rotations: %v\n", err)
			return
		}
		if err := os.WriteFile("BENCH_rotations.json", append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rotations: %v\n", err)
		}
	})
}
