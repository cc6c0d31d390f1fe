package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one completed op as its lane saw it.
type sample struct {
	start, end time.Time
	ok         bool
}

// mark is the process state at a window boundary.
type mark struct {
	at      time.Time
	cpu     time.Duration // user+sys, whole process: client and server
	alloc   uint64
	mallocs uint64
}

func takeMark() mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// windowStats is what one measurement window yields. ops is fractional:
// an op straddling a boundary counts in each window by the share of its
// duration that fell inside it, so a window's resource deltas are divided
// by the work actually done in it, not by how many ops happened to finish.
type windowStats struct {
	seconds float64
	ops     float64
	cpuMs   float64
	allocMB float64
	mallocs float64
	slow    slowdown // how much slower than the reference the box was (1 = not measured)
}

// runStats is a whole measured run: back-to-back windows plus the pooled
// raw latencies of every verified op.
type runStats struct {
	windows   []windowStats
	latencyMs []float64 // at reference speed once merged by add
	rawMs     []float64 // as the wall clock read
	attempted int
	failed    int
	traces    []*opTrace
	firstErr  error
}

// measure drives every lane in a closed loop through `windows`
// back-to-back windows of length win. Ops in flight at the last boundary
// run to completion: they count as attempted and give a latency sample,
// and the part of them before the boundary counts toward the last window.
// With traced set, each lane records spans around the calls it makes.
func measure(cs *conns, windows int, win time.Duration, firstOp int, traced bool) runStats {
	lanes := cs.fx.w.lanes()
	samples := make([][]sample, lanes)
	recs := make([]*recorder, lanes)
	errs := make([]error, lanes)
	var stop atomic.Bool
	var wg sync.WaitGroup

	runtime.GC()
	marks := make([]mark, 0, windows+1)
	marks = append(marks, takeMark())
	for lane := 0; lane < lanes; lane++ {
		if traced {
			recs[lane] = &recorder{}
		}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for k := firstOp; !stop.Load(); k++ {
				t0 := time.Now()
				e, err := cs.op(lane, k, recs[lane])
				t1 := time.Now()
				ok := err == nil && e <= replyTolerance
				if !ok && errs[lane] == nil {
					if err == nil {
						err = fmt.Errorf("reply off by %g (tolerance %g)", e, replyTolerance)
					}
					errs[lane] = fmt.Errorf("lane %d op %d: %w", lane, k, err)
				}
				samples[lane] = append(samples[lane], sample{start: t0, end: t1, ok: ok})
			}
		}(lane)
	}
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(marks[0].at.Add(time.Duration(i) * win)))
		marks = append(marks, takeMark())
	}
	stop.Store(true)
	wg.Wait()

	rs := runStats{windows: make([]windowStats, windows)}
	for i := range rs.windows {
		a, b := marks[i], marks[i+1]
		rs.windows[i] = windowStats{
			slow:    slowdown{wall: 1, cpu: 1},
			seconds: b.at.Sub(a.at).Seconds(),
			cpuMs:   ms(b.cpu - a.cpu),
			allocMB: float64(b.alloc-a.alloc) / 1e6,
			mallocs: float64(b.mallocs - a.mallocs),
		}
	}
	for _, ls := range samples {
		for _, s := range ls {
			rs.attempted++
			if !s.ok {
				rs.failed++
				continue
			}
			lat := s.end.Sub(s.start)
			rs.latencyMs = append(rs.latencyMs, ms(lat))
			for i := range rs.windows {
				a, b := marks[i].at, marks[i+1].at
				if s.start.After(a) {
					a = s.start
				}
				if s.end.Before(b) {
					b = s.end
				}
				if b.After(a) {
					rs.windows[i].ops += float64(b.Sub(a)) / float64(lat)
				}
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			rs.firstErr = err
			break
		}
	}
	for _, r := range recs {
		if r != nil {
			rs.traces = append(rs.traces, r.ops...)
		}
	}
	return rs
}

// add merges a one-window run into rs, stamped with the box's slowdown
// over that window: its latencies join the pool divided by it.
func (rs *runStats) add(w runStats, slow slowdown) {
	w.windows[0].slow = slow
	rs.windows = append(rs.windows, w.windows...)
	for _, l := range w.latencyMs {
		rs.latencyMs = append(rs.latencyMs, l/correction(slow.wall))
	}
	rs.rawMs = append(rs.rawMs, w.latencyMs...)
	rs.attempted += w.attempted
	rs.failed += w.failed
	if rs.firstErr == nil {
		rs.firstErr = w.firstErr
	}
}

// perWindow maps each window to one number; windows that verified no op
// are skipped (a rate of zero has no per-op cost).
func (rs *runStats) perWindow(f func(w windowStats) float64) []float64 {
	out := make([]float64, 0, len(rs.windows))
	for _, w := range rs.windows {
		if w.ops > 0 {
			out = append(out, f(w))
		}
	}
	return out
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
