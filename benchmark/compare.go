package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Verdicts of one (workload, metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of base the new value is worse, in the
// metric's direction; negative means it got better.
func worsening(d metricDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// judge applies one metric's bound. A metric whose in-run spread (either
// side) exceeds its bound cannot resolve a change of that size: it is
// unresolved, never "unchanged".
func judge(d metricDef, base, now value) (worse float64, verdict string) {
	worse = worsening(d, base.Value, now.Value)
	spread := 0.0
	for _, v := range []value{base, now} {
		if v.Spread != nil && *v.Spread > spread {
			spread = *v.Spread
		}
	}
	switch {
	case spread > d.Bound:
		return worse, verdictUnresolved
	case worse > d.Bound:
		return worse, verdictRegression
	}
	return worse, verdictOK
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runCompare applies the bounds per workload row to two result files of
// the same benchmark, printing every ratio with its base. It fails when
// any pairing regressed.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare base.json new.json")
	}
	base, err := readResult(args[0])
	if err != nil {
		return err
	}
	now, err := readResult(args[1])
	if err != nil {
		return err
	}
	if base.Envelope.Seconds != now.Envelope.Seconds || base.Envelope.Smoke != now.Envelope.Smoke {
		return fmt.Errorf("run length differs (%gs smoke=%t vs %gs smoke=%t): measure both sides with the same settings",
			base.Envelope.Seconds, base.Envelope.Smoke, now.Envelope.Seconds, now.Envelope.Smoke)
	}
	fmt.Printf("%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, w := range workloads {
		b, n := base.Workloads[w.name], now.Workloads[w.name]
		if b == nil || n == nil || b.EndToEnd == nil || n.EndToEnd == nil {
			fmt.Printf("%-18s missing on one side\n", w.name)
			regressions++
			continue
		}
		for _, d := range endToEnd {
			worse, verdict := judge(d, b.EndToEnd[d.Name], n.EndToEnd[d.Name])
			fmt.Printf("%-18s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				w.name, d.Name, b.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value, 100*worse, 100*d.Bound, verdict)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
		}
		verdict := verdictOK
		if n.FailedShare > b.FailedShare+failedShareBound {
			verdict = verdictRegression
			regressions++
		}
		fmt.Printf("%-18s %-18s %14.6g %14.6g %+8.4f  %6.3f   %s\n",
			w.name, "failed_share", b.FailedShare, n.FailedShare, n.FailedShare-b.FailedShare, failedShareBound, verdict)
	}
	fmt.Printf("\n%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
