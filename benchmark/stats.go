package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least ⌈q·n⌉ samples at or below it. Raw
// samples in, one of them out — no bucketing, no interpolation. xs is
// not modified; an empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the mean of the two middle samples for even n (so the median
// of three windows is the middle window and of two is their midpoint).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// medianSpread reduces one value per measurement window to the median
// and the in-run spread (max−min)/median. A spread above a metric's
// bound means the run itself cannot resolve a change of that size.
func medianSpread(windows []float64) (med, spread float64) {
	med = median(windows)
	if len(windows) < 2 || med == 0 || math.IsNaN(med) {
		return med, 0
	}
	lo, hi := windows[0], windows[0]
	for _, v := range windows[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return med, (hi - lo) / math.Abs(med)
}

// minTailSamples is how many samples must lie beyond a percentile for it
// to be reported: with fewer, the value is one scheduling hiccup.
const minTailSamples = 10

// highestPercentile returns the highest whole percentile in [50, 99]
// that still has minTailSamples samples beyond it, or 0 when even the
// median does not.
func highestPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if n*(100-p) >= 100*minTailSamples {
			return p
		}
	}
	return 0
}

// span is one timed call the benchmark made: its name, interval and the
// index of the span that caused it within the same op (-1 for the root).
type span struct {
	name       string
	start, end time.Time
	parent     int
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTimes returns, per span of one op, its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Time }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent < 0 || s.parent >= len(spans) {
			continue
		}
		p := spans[s.parent]
		a, b := s.start, s.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			kids[s.parent] = append(kids[s.parent], iv{a, b})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var end time.Time
		for _, v := range ivs {
			if v.a.After(end) {
				covered += v.b.Sub(v.a)
				end = v.b
			} else if v.b.After(end) {
				covered += v.b.Sub(end)
				end = v.b
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
