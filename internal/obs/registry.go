package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. All methods are atomic.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can move both ways. All methods are atomic.
type Gauge struct{ bits atomic.Uint64 }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set.
type series struct {
	labels string // rendered {k="v",...} suffix, "" for unlabeled
	c      *Counter
	g      *Gauge
	f      func() float64 // CounterFunc / GaugeFunc
	h      *Histogram
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []*series // registration order, for stable exposition
}

// Registry is a lock-cheap metrics registry: registration (Counter,
// Gauge, Histogram, ...) takes a mutex once and returns an instrument
// pointer; every hot-path update after that is pure atomics on the held
// pointer. Registration is idempotent — the same name and label set
// returns the same instrument — so instruments can be resolved lazily
// from concurrent paths. WritePrometheus renders the text exposition
// format for scraping.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// renderLabels turns ["k","v",...] pairs into a canonical {k="v",...}
// suffix (keys sorted, values escaped). Panics on an odd pair count or an
// invalid name — misregistered metrics are programming errors, caught in
// tests, not conditions to handle at runtime.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the series for (name, labels), creating family and
// series through mk on first use. Kind mismatches panic: two call sites
// disagreeing on a metric's type is a bug, not a runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, mk func() *series) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.RLock()
	fam := r.families[name]
	var s *series
	if fam != nil {
		s = fam.series[key]
	}
	r.mu.RUnlock()
	if s != nil {
		if fam.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, fam.kind, kind))
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam = r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, fam.kind, kind))
	}
	if s = fam.series[key]; s != nil {
		return s
	}
	s = mk()
	s.labels = key
	fam.series[key] = s
	fam.order = append(fam.order, s)
	return s
}

// Counter returns the counter for name and label pairs, registering it on
// first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, counterKind, labels, func() *series { return &series{c: new(Counter)} })
	if s.c == nil {
		panic(fmt.Sprintf("obs: metric %s is a counter func, not a counter", name))
	}
	return s.c
}

// Gauge returns the gauge for name and label pairs, registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, gaugeKind, labels, func() *series { return &series{g: new(Gauge)} })
	if s.g == nil {
		panic(fmt.Sprintf("obs: metric %s is a gauge func, not a gauge", name))
	}
	return s.g
}

// Histogram returns the histogram for name and label pairs, registering
// it on first use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	s := r.lookup(name, help, histogramKind, labels, func() *series { return &series{h: new(Histogram)} })
	return s.h
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time — the bridge for components that already keep their own atomic
// gauges (queue depth, pool utilization, key stock). Idempotent: a
// second registration for the same name and labels replaces f.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...string) {
	s := r.lookup(name, help, gaugeKind, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.f, s.g = f, nil
	r.mu.Unlock()
}

// CounterFunc registers a counter read from f at exposition time (f must
// be monotone). Idempotent like GaugeFunc.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...string) {
	s := r.lookup(name, help, counterKind, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.f, s.c = f, nil
	r.mu.Unlock()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers per family,
// cumulative `_bucket{le=...}` series plus `_sum`/`_count` for
// histograms. Histogram bucket lines are emitted only at boundaries with
// observations (plus the mandatory `+Inf`) — cumulative counts stay
// exact, output stays proportional to the data.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Snapshot the series slices under the lock; instruments themselves
	// are atomic.
	type famView struct {
		fam    *family
		series []*series
	}
	views := make([]famView, len(fams))
	for i, f := range fams {
		views[i] = famView{fam: f, series: append([]*series(nil), f.order...)}
	}
	r.mu.RUnlock()
	sort.Slice(views, func(i, j int) bool { return views[i].fam.name < views[j].fam.name })

	var b strings.Builder
	for _, v := range views {
		f := v.fam
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range v.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case s.f != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.f()))
			case s.h != nil:
				writeHistogram(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series. Bucket labels compose the
// series labels with le, so labeled histograms stay well-formed.
func writeHistogram(b *strings.Builder, name, labels string, s HistSnapshot) {
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if c == 0 || i == len(s.Counts)-1 {
			continue
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", name, inner, formatFloat(BucketUpper(i)), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, s.Count)
}
