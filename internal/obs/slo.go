package obs

import (
	"sync"
	"time"
)

// DefaultSLOWindows are the burn-rate windows tracked when a tracker is
// built without explicit ones: a fast window that pages on sharp budget
// burn and a slow one that catches sustained slow burn (the classic
// multi-window pairing).
var DefaultSLOWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// SLOTracker measures one service-level objective as a stream of
// good/bad events: cumulative attainment since start plus per-second
// buckets covering the largest configured window, from which windowed
// attainment and burn rates are derived. A burn rate of 1.0 means the
// error budget (1 − objective) is being consumed exactly as fast as the
// objective allows; multi-window burn-rate alerting compares a fast and
// a slow window against thresholds. Safe for concurrent use; Observe is
// a mutex-guarded counter bump, cheap enough for per-request paths.
type SLOTracker struct {
	name      string
	objective float64
	windows   []time.Duration

	mu        sync.Mutex
	good, bad int64
	buckets   []sloBucket // per-second ring, len = max window seconds
}

type sloBucket struct {
	sec       int64 // unix second this bucket currently holds; 0 = empty
	good, bad int64
}

// NewSLOTracker builds a tracker for one objective (target good ratio in
// (0,1], e.g. 0.99). Windows default to DefaultSLOWindows; the largest
// window bounds the bucket ring.
func NewSLOTracker(name string, objective float64, windows ...time.Duration) *SLOTracker {
	if objective <= 0 || objective > 1 {
		objective = 0.99
	}
	if len(windows) == 0 {
		windows = DefaultSLOWindows
	}
	max := time.Duration(0)
	for _, w := range windows {
		if w > max {
			max = w
		}
	}
	secs := int(max / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &SLOTracker{
		name:      name,
		objective: objective,
		windows:   windows,
		buckets:   make([]sloBucket, secs),
	}
}

// Observe records one event against the objective.
func (t *SLOTracker) Observe(good bool) { t.observeAt(time.Now(), good) }

func (t *SLOTracker) observeAt(at time.Time, good bool) {
	sec := at.Unix()
	t.mu.Lock()
	b := &t.buckets[int(sec%int64(len(t.buckets)))]
	if b.sec != sec {
		b.sec, b.good, b.bad = sec, 0, 0
	}
	if good {
		t.good++
		b.good++
	} else {
		t.bad++
		b.bad++
	}
	t.mu.Unlock()
}

// Good and Bad return the cumulative event counts.
func (t *SLOTracker) Good() int64 { t.mu.Lock(); defer t.mu.Unlock(); return t.good }

// Bad returns the cumulative count of events that missed the objective.
func (t *SLOTracker) Bad() int64 { t.mu.Lock(); defer t.mu.Unlock(); return t.bad }

// Attainment returns the cumulative good ratio (1 when no events yet).
func (t *SLOTracker) Attainment() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(t.good, t.bad)
}

// Burn returns the burn rate over the trailing window: the window's bad
// ratio divided by the error budget (1 − objective). 0 when the window
// holds no events.
func (t *SLOTracker) Burn(window time.Duration) float64 {
	good, bad := t.windowCounts(time.Now(), window)
	if good+bad == 0 {
		return 0
	}
	budget := 1 - t.objective
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(good+bad)) / budget
}

func (t *SLOTracker) windowCounts(now time.Time, window time.Duration) (good, bad int64) {
	secs := int(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > len(t.buckets) {
		secs = len(t.buckets)
	}
	nowSec := now.Unix()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < secs; i++ {
		sec := nowSec - int64(i)
		b := &t.buckets[int(sec%int64(len(t.buckets)))]
		if b.sec == sec {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

func ratio(good, bad int64) float64 {
	if good+bad == 0 {
		return 1
	}
	return float64(good) / float64(good+bad)
}

// SLOWindowSnapshot is one window's attainment and burn rate.
type SLOWindowSnapshot struct {
	Window     string  `json:"window"`
	Good       int64   `json:"good"`
	Bad        int64   `json:"bad"`
	Attainment float64 `json:"attainment"`
	BurnRate   float64 `json:"burn_rate"`
}

// SLOSnapshot is one objective's full state: cumulative counts plus each
// configured window's burn rate.
type SLOSnapshot struct {
	Name       string              `json:"slo"`
	Objective  float64             `json:"objective"`
	Good       int64               `json:"good"`
	Bad        int64               `json:"bad"`
	Attainment float64             `json:"attainment"`
	Windows    []SLOWindowSnapshot `json:"windows"`
}

// Snapshot captures the tracker's current state.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	now := time.Now()
	t.mu.Lock()
	snap := SLOSnapshot{
		Name:       t.name,
		Objective:  t.objective,
		Good:       t.good,
		Bad:        t.bad,
		Attainment: ratio(t.good, t.bad),
	}
	t.mu.Unlock()
	budget := 1 - t.objective
	if budget <= 0 {
		budget = 1e-9
	}
	for _, w := range t.windows {
		good, bad := t.windowCounts(now, w)
		ws := SLOWindowSnapshot{Window: w.String(), Good: good, Bad: bad, Attainment: ratio(good, bad)}
		if good+bad > 0 {
			ws.BurnRate = (float64(bad) / float64(good+bad)) / budget
		}
		snap.Windows = append(snap.Windows, ws)
	}
	return snap
}

// SLOSet is a named collection of SLO trackers sharing one registry:
// adding an objective registers its quhe_slo_* series (events by result,
// attainment gauge, per-window burn-rate gauges) under a bounded "slo"
// label. Add is idempotent by name, so lazily discovered objectives
// (per-profile latency SLOs) can be added from the serving path.
type SLOSet struct {
	reg *Registry

	mu    sync.Mutex
	slos  map[string]*SLOTracker
	order []string
}

// NewSLOSet builds an empty set; reg may be nil (no series registered).
func NewSLOSet(reg *Registry) *SLOSet {
	return &SLOSet{reg: reg, slos: make(map[string]*SLOTracker)}
}

// Add returns the tracker registered under name, creating it (and its
// metric series) on first use.
func (s *SLOSet) Add(name string, objective float64, windows ...time.Duration) *SLOTracker {
	s.mu.Lock()
	if t, ok := s.slos[name]; ok {
		s.mu.Unlock()
		return t
	}
	t := NewSLOTracker(name, objective, windows...)
	s.slos[name] = t
	s.order = append(s.order, name)
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.CounterFunc("quhe_slo_events_total",
			"SLO events by objective and result.",
			func() float64 { return float64(t.Good()) }, "slo", name, "result", "good")
		s.reg.CounterFunc("quhe_slo_events_total",
			"SLO events by objective and result.",
			func() float64 { return float64(t.Bad()) }, "slo", name, "result", "bad")
		s.reg.GaugeFunc("quhe_slo_attainment",
			"Cumulative SLO attainment (good / total, 1 when idle).",
			t.Attainment, "slo", name)
		for _, w := range t.windows {
			w := w
			s.reg.GaugeFunc("quhe_slo_burn_rate",
				"Windowed SLO burn rate (bad ratio over error budget).",
				func() float64 { return t.Burn(w) }, "slo", name, "window", w.String())
		}
	}
	return t
}

// Snapshot captures every tracker in insertion order — the /debug/slo
// payload.
func (s *SLOSet) Snapshot() []SLOSnapshot {
	s.mu.Lock()
	trackers := make([]*SLOTracker, 0, len(s.order))
	for _, name := range s.order {
		trackers = append(trackers, s.slos[name])
	}
	s.mu.Unlock()
	out := make([]SLOSnapshot, 0, len(trackers))
	for _, t := range trackers {
		out = append(out, t.Snapshot())
	}
	return out
}
