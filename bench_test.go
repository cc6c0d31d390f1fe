// Benchmarks regenerating every table and figure of the QuHE paper's
// evaluation section (Fig. 3–6, Tables V/VI), plus per-stage solver and
// ablation benches. Each figure/table bench prints its rows/series once
// (via printOnce) so a plain `go test -bench=.` run reproduces the paper's
// outputs; the heavier experiments use reduced sizes here — cmd/quhe runs
// them at paper scale. Nothing here writes a file or touches the serving
// stack: that is measured by `go run ./benchmark` (see BENCHMARK.json).
package quhe_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"quhe/internal/core"
	"quhe/internal/experiments"
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
		if _, err := cfg.SolveStage2(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage3FractionalProgramming(b *testing.B) {
	cfg := paperCfg(b)
	v := stage1Vars(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage3(v); err != nil {
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

// --- Ablations ---------------------------------------------------------------

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

// BenchmarkAblationStage1SimAnnealing measures the simulated-annealing
// baseline at its default budget for the Fig. 5(b) runtime comparison.
func BenchmarkAblationStage1SimAnnealing(b *testing.B) {
	cfg := paperCfg(b)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SolveStage1(core.Stage1Options{Method: core.Stage1SA}); err != nil {
			b.Fatal(err)
		}
	}
}
