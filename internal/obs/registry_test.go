package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("quhe_test_total", "help", "dir", "in")
	c2 := r.Counter("quhe_test_total", "ignored on re-registration", "dir", "in")
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter")
	}
	if r.Counter("quhe_test_total", "", "dir", "out") == c1 {
		t.Fatal("distinct labels must return distinct counters")
	}
	h1 := r.Histogram("quhe_test_seconds", "", "profile", "a")
	if h1 != r.Histogram("quhe_test_seconds", "", "profile", "a") {
		t.Fatal("same name+labels must return the same histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("quhe_test_total", "")
}

// promLine matches a sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// checkPromText validates output against the Prometheus text-format
// rules: every non-comment line parses as a sample, every family has a
// TYPE, histogram buckets are cumulative and end at +Inf matching
// _count. Returns the parsed samples.
func checkPromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	var lastBucket string
	var lastCum float64
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line violates text exposition format: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		key, valStr := line[:sp], line[sp+1:]
		var val float64
		if valStr == "+Inf" {
			val = 1e308
		} else {
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			val = v
		}
		samples[key] = val
		// Cumulativity within one histogram series.
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			series := name + labelsWithoutLe(key)
			if series == lastBucket && val < lastCum {
				t.Fatalf("bucket counts not cumulative at %q: %g < %g", line, val, lastCum)
			}
			lastBucket, lastCum = series, val
		}
	}
	for name, kind := range typed {
		if kind != "counter" && kind != "gauge" && kind != "histogram" {
			t.Fatalf("family %s has unknown type %s", name, kind)
		}
	}
	return samples
}

func labelsWithoutLe(key string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return ""
	}
	var kept []string
	for _, kv := range strings.Split(strings.Trim(key[i:], "{}"), ",") {
		if !strings.HasPrefix(kv, `le="`) {
			kept = append(kept, kv)
		}
	}
	return strings.Join(kept, ",")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("quhe_frames_total", "frames seen", "dir", "in").Add(7)
	r.Gauge("quhe_depth", "queue depth").Add(3.5)
	r.GaugeFunc("quhe_stock_bytes", "key stock", func() float64 { return 123 })
	h := r.Histogram("quhe_lat_seconds", "latency", "profile", `we"ird\p`)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := checkPromText(t, b.String())
	if samples[`quhe_frames_total{dir="in"}`] != 7 {
		t.Errorf("counter sample missing: %v", samples)
	}
	if samples["quhe_depth"] != 3.5 || samples["quhe_stock_bytes"] != 123 {
		t.Errorf("gauge samples wrong: %v", samples)
	}
	count := samples[`quhe_lat_seconds_count{profile="we\"ird\\p"}`]
	if count != 100 {
		t.Errorf("histogram count = %g, want 100 (samples: %v)", count, samples)
	}
	inf := samples[`quhe_lat_seconds_bucket{profile="we\"ird\\p",le="+Inf"}`]
	if inf != 100 {
		t.Errorf("+Inf bucket = %g, want 100", inf)
	}
}

// TestRegistryConcurrentWritersAndScrapers is the -race stress test:
// concurrent counter/gauge/histogram writers, lazy registrations and
// scrapers must be data-race free and lose no counted increments.
func TestRegistryConcurrentWritersAndScrapers(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wr := wr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("quhe_stress_total", "").Inc()
				r.Gauge("quhe_stress_gauge", "").Add(1)
				r.Histogram("quhe_stress_seconds", "", "w", fmt.Sprint(wr%3)).Observe(float64(i%100) / 10)
			}
		}()
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for sc := 0; sc < 3; sc++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	if got := r.Counter("quhe_stress_total", "").Value(); got != writers*perWriter {
		t.Fatalf("lost increments: %d, want %d", got, writers*perWriter)
	}
	var total int64
	for _, w := range []string{"0", "1", "2"} {
		total += r.Histogram("quhe_stress_seconds", "", "w", w).Snapshot().Count
	}
	if total != writers*perWriter {
		t.Fatalf("lost observations: %d, want %d", total, writers*perWriter)
	}
}
