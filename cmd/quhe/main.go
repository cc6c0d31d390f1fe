// Command quhe regenerates the tables and figures of the QuHE paper's
// evaluation section (§VI) from the Go reproduction.
//
// Usage:
//
//	quhe -exp fig3 [-samples 100] [-seed 1] [-workers N]
//	quhe -exp fig4|fig5a|fig5bc|fig5d|table5|table6|topology
//	quhe -exp fig6 [-sweep bandwidth|power|client-cpu|server-cpu|all] [-points 5]
//	quhe -exp all
//	quhe -exp control|profilemix
//
// All paper experiments run on the paper's SURFnet configuration with
// channel gains drawn from the given seed. control and profilemix are
// serving-plane experiments, not part of -exp all: each serves encrypted
// sessions on loopback and prints its result as JSON
// (experiments.ControlLoop, experiments.ProfileMix).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"quhe/internal/core"
	"quhe/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "quhe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("quhe", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment: fig3, fig4, fig5a, fig5bc, fig5d, fig6, table5, table6, topology, all; control, profilemix")
		seed    = fs.Int64("seed", 1, "RNG seed for channel gains and stochastic baselines")
		samples = fs.Int("samples", 100, "number of random initializations for fig3")
		points  = fs.Int("points", 5, "sweep points per fig6 panel")
		sweep   = fs.String("sweep", "all", "fig6 panel: bandwidth, power, client-cpu, server-cpu, all")
		workers = fs.Int("workers", 0, "parallel workers (0 = NumCPU)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.PaperConfig(*seed)
	if err := cfg.Validate(); err != nil {
		return err
	}

	runOne := func(name string) error {
		switch name {
		case "topology":
			return runTopology(cfg)
		case "fig3":
			return runFig3(cfg, *samples, *seed, *workers)
		case "fig4":
			return runFig4(cfg)
		case "fig5a":
			return runFig5a(cfg)
		case "fig5bc":
			return runFig5bc(cfg, *seed)
		case "fig5d":
			return runFig5d(cfg)
		case "fig6":
			return runFig6(cfg, *sweep, *points, *workers)
		case "table5":
			return runTable(cfg, *seed, experiments.Table5)
		case "table6":
			return runTable(cfg, *seed, experiments.Table6)
		case "control":
			return printJSON(experiments.ControlLoop())
		case "profilemix":
			return printJSON(experiments.ProfileMix())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"topology", "table5", "table6", "fig4", "fig5a", "fig5bc", "fig5d", "fig3", "fig6"} {
			fmt.Printf("==== %s ====\n", name)
			if err := runOne(name); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(*exp)
}

func runTopology(cfg *core.Config) error {
	routes, links := experiments.TopologyTables(cfg.Net)
	routes.Render(os.Stdout)
	fmt.Println()
	links.Render(os.Stdout)
	return nil
}

func runFig3(cfg *core.Config, samples int, seed int64, workers int) error {
	start := time.Now()
	res, err := experiments.Fig3(cfg, samples, seed, workers)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 3: objective across %d random initializations (%.1fs)\n",
		len(res.Values), time.Since(start).Seconds())
	fmt.Printf("  max %.2f  min %.2f  mean %.2f\n", res.Summary.Max, res.Summary.Min, res.Summary.Mean)
	fmt.Printf("  very good [10,15): %.0f%%   good or better (>=5): %.0f%%\n",
		100*res.VeryGood, 100*res.GoodOrBetter)
	experiments.RenderHistogram(os.Stdout, res.Edges, res.Buckets)
	return nil
}

func runFig4(cfg *core.Config) error {
	res, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	experiments.RenderTrace(os.Stdout, "Fig. 4(a) Stage-1 objective", res.Stage1, 12)
	experiments.RenderTrace(os.Stdout, "Fig. 4(b) Stage-2 incumbent", res.Stage2, 12)
	experiments.RenderTrace(os.Stdout, "Fig. 4(c) Stage-3 POBJ", res.Stage3POBJ, 12)
	experiments.RenderTrace(os.Stdout, "Fig. 4(d) Stage-3 duality gap", res.Stage3Gap, 12)
	return nil
}

func runFig5a(cfg *core.Config) error {
	res, err := experiments.Fig5a(cfg)
	if err != nil {
		return err
	}
	t := experiments.Table{
		Title:  "Fig. 5(a): stage calls and runtime",
		Header: []string{"Metric", "S1", "S2", "S3", "Total"},
		Rows: [][]string{
			{"Calls", strconv.Itoa(res.Calls[0]), strconv.Itoa(res.Calls[1]), strconv.Itoa(res.Calls[2]), ""},
			{"Runtime (s)",
				fmt.Sprintf("%.3f", res.StageRuntime[0].Seconds()),
				fmt.Sprintf("%.3f", res.StageRuntime[1].Seconds()),
				fmt.Sprintf("%.3f", res.StageRuntime[2].Seconds()),
				fmt.Sprintf("%.3f", res.Total.Seconds())},
		},
	}
	t.Render(os.Stdout)
	fmt.Printf("objective: %.4f\n", res.Objective)
	return nil
}

func runFig5bc(cfg *core.Config, seed int64) error {
	comps, err := experiments.Stage1Methods(cfg, seed)
	if err != nil {
		return err
	}
	t := experiments.Table{
		Title:  "Fig. 5(b)/(c): Stage-1 method runtime and objective",
		Header: []string{"Method", "Runtime (s)", "Objective (min)"},
	}
	for _, c := range comps {
		t.Rows = append(t.Rows, []string{
			c.Method,
			fmt.Sprintf("%.3f", c.Runtime.Seconds()),
			fmt.Sprintf("%.4f", c.Objective),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func runFig5d(cfg *core.Config) error {
	rows, err := experiments.Fig5d(cfg)
	if err != nil {
		return err
	}
	t := experiments.Table{
		Title:  "Fig. 5(d): whole-procedure method comparison",
		Header: []string{"Method", "Energy (J)", "Delay (s)", "U_msl", "Objective"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Method,
			fmt.Sprintf("%.1f", r.Energy),
			fmt.Sprintf("%.1f", r.Delay),
			fmt.Sprintf("%.2f", r.UMSL),
			fmt.Sprintf("%.3f", r.Objective),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func runFig6(cfg *core.Config, sweep string, points, workers int) error {
	panels := map[string]experiments.Fig6Which{
		"bandwidth":  experiments.Fig6Bandwidth,
		"power":      experiments.Fig6Power,
		"client-cpu": experiments.Fig6ClientCPU,
		"server-cpu": experiments.Fig6ServerCPU,
	}
	var names []string
	if sweep == "all" {
		names = []string{"bandwidth", "power", "client-cpu", "server-cpu"}
	} else {
		if _, ok := panels[sweep]; !ok {
			return fmt.Errorf("unknown sweep %q", sweep)
		}
		names = []string{sweep}
	}
	for _, name := range names {
		res, err := experiments.Fig6(cfg, panels[name], points, workers)
		if err != nil {
			return err
		}
		experiments.RenderSeries(os.Stdout, res)
		fmt.Println()
	}
	return nil
}

func runTable(cfg *core.Config, seed int64, gen func(*core.Config, int64) (experiments.Table, error)) error {
	t, err := gen(cfg, seed)
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	return nil
}

// printJSON prints a serving-plane experiment's result as indented JSON.
func printJSON[T any](res T, err error) error {
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
