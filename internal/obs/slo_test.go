package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSLOTrackerAttainment(t *testing.T) {
	tr := NewSLOTracker("avail", 0.99)
	if got := tr.Attainment(); got != 1 {
		t.Fatalf("idle attainment = %g, want 1", got)
	}
	for i := 0; i < 99; i++ {
		tr.Observe(true)
	}
	tr.Observe(false)
	if got := tr.Attainment(); got != 0.99 {
		t.Errorf("attainment = %g, want 0.99", got)
	}
	if tr.Good() != 99 || tr.Bad() != 1 {
		t.Errorf("good/bad = %d/%d, want 99/1", tr.Good(), tr.Bad())
	}
}

func TestSLOTrackerBurnRate(t *testing.T) {
	tr := NewSLOTracker("avail", 0.99, time.Minute)
	now := time.Unix(1000, 0)
	// 10% bad ratio against a 1% error budget → burn rate 10.
	for i := 0; i < 90; i++ {
		tr.observeAt(now, true)
	}
	for i := 0; i < 10; i++ {
		tr.observeAt(now, false)
	}
	good, bad := tr.windowCounts(now, time.Minute)
	if good != 90 || bad != 10 {
		t.Fatalf("window counts = %d/%d, want 90/10", good, bad)
	}
	budget := 1 - 0.99
	burn := (float64(bad) / float64(good+bad)) / budget
	if burn < 9.99 || burn > 10.01 {
		t.Errorf("burn = %g, want ≈10", burn)
	}
	// Events older than the window must age out of the windowed counts.
	good, bad = tr.windowCounts(now.Add(2*time.Minute), time.Minute)
	if good != 0 || bad != 0 {
		t.Errorf("aged window counts = %d/%d, want 0/0", good, bad)
	}
	// ...while cumulative totals survive.
	if tr.Good() != 90 || tr.Bad() != 10 {
		t.Errorf("cumulative = %d/%d, want 90/10", tr.Good(), tr.Bad())
	}
}

func TestSLOTrackerBucketReuse(t *testing.T) {
	// Two observations one full ring-length apart land in the same bucket
	// slot; the newer second must evict the older counts, not add to them.
	tr := NewSLOTracker("x", 0.9, time.Minute)
	base := time.Unix(5000, 0)
	tr.observeAt(base, false)
	later := base.Add(time.Duration(len(tr.buckets)) * time.Second)
	tr.observeAt(later, true)
	good, bad := tr.windowCounts(later, time.Minute)
	if good != 1 || bad != 0 {
		t.Errorf("window counts after slot reuse = %d/%d, want 1/0", good, bad)
	}
}

func TestSLOTrackerDefaults(t *testing.T) {
	tr := NewSLOTracker("x", 0) // bad objective → default
	if tr.objective != 0.99 {
		t.Errorf("objective defaulted to %g, want 0.99", tr.objective)
	}
	if len(tr.windows) != len(DefaultSLOWindows) {
		t.Errorf("windows defaulted to %d, want %d", len(tr.windows), len(DefaultSLOWindows))
	}
	if len(tr.buckets) != int(time.Hour/time.Second) {
		t.Errorf("ring sized %d, want %d (largest default window)", len(tr.buckets), int(time.Hour/time.Second))
	}
}

func TestSLOSnapshotJSONShape(t *testing.T) {
	tr := NewSLOTracker("latency", 0.95, time.Minute, 5*time.Minute)
	tr.Observe(true)
	tr.Observe(false)
	snap := tr.Snapshot()
	if snap.Name != "latency" || snap.Objective != 0.95 {
		t.Errorf("snapshot header = %q/%g", snap.Name, snap.Objective)
	}
	if len(snap.Windows) != 2 {
		t.Fatalf("snapshot windows = %d, want 2", len(snap.Windows))
	}
	if snap.Windows[0].Window != "1m0s" {
		t.Errorf("window label %q", snap.Windows[0].Window)
	}
	if snap.Attainment != 0.5 {
		t.Errorf("attainment %g, want 0.5", snap.Attainment)
	}
}

func TestSLOSetRegistersSeries(t *testing.T) {
	reg := NewRegistry()
	set := NewSLOSet(reg)
	tr := set.Add("availability", 0.99, time.Minute)
	if set.Add("availability", 0.5) != tr {
		t.Fatal("Add must be idempotent by name")
	}
	tr.Observe(true)
	tr.Observe(false)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`quhe_slo_events_total{result="good",slo="availability"} 1`,
		`quhe_slo_events_total{result="bad",slo="availability"} 1`,
		`quhe_slo_attainment{slo="availability"} 0.5`,
		`quhe_slo_burn_rate{slo="availability",window="1m0s"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}

	snaps := set.Snapshot()
	if len(snaps) != 1 || snaps[0].Name != "availability" {
		t.Fatalf("set snapshot = %+v", snaps)
	}
}
